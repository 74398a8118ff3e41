"""Deletion policies — the Theorem 2 framework.

A *deletion policy* is "an algorithm which given reduced graph G (the
current graph) outputs a set of (completed) nodes to be deleted" (§4); the
scheduling loop applies the scheduler's transition function ``F`` to each
arriving step and then removes ``P(G)``.  Theorem 2: the combined algorithm
accepts exactly the CSR schedules **iff** every deletion the policy performs
is safe.

Every policy here performs only safe deletions (each class documents why),
so by Theorem 2 they are all *correct*; they differ in how much they prune
and at what cost.  With the copy-free query stack (entity indexes, memoized
tight-path sets, trial deletions on the live graph — see
``repro.core.reduced_graph``) the costs per invocation are:

============================  ==========================  ============================================
policy                        criterion                   cost per invocation
============================  ==========================  ============================================
:class:`NeverDeletePolicy`    nothing                     O(1)
:class:`Lemma1Policy`         no active predecessors      O(committed) ANDs; ids only for the selected
:class:`NoncurrentPolicy`     Corollary 1 noncurrency     O(lapsed since last sweep + idle actives)
:class:`EagerC1Policy`        maximal greedy C2 subset    O(Σ tight sets of dirty candidates), no copy
:class:`OptimalPolicy`        maximum C2 subset           exponential (Thm 5), demand build copy-free
:class:`EagerC4Policy`        repeated C4 (predeclared)   poly; live-graph trial + undo log, no copy
:class:`EagerC3Policy`        repeated C3 (multiwrite)    exp. in #active; subgraphs never materialized
============================  ==========================  ============================================

Policies are stateless and reusable; :meth:`DeletionPolicy.select` takes
the scheduler (for its graph *and* its currency tracker) and returns the
set of ids to remove — the runner then calls
``scheduler.delete_transactions(...)``.

Sweep gating (consumed by :class:`repro.engine.Engine`)
-------------------------------------------------------

Two class attributes let the engine avoid invoking a policy that provably
cannot select anything, and restrict re-examination to transactions whose
condition status may actually have changed:

* ``completion_gated`` — the policy's single-deletion condition can flip
  from unsatisfied to satisfied only when a transaction completes or
  aborts (true for every basic-model condition: new arcs only *add*
  active predecessors, and an active transaction's executed accesses never
  witness C1).  The engine skips the sweep when neither happened since the
  last one.
* ``dirty_events`` — ``"completions"`` or ``"steps"``: the policy accepts
  a ``dirty`` keyword restricting which completed transactions it
  re-examines.  Soundness argument (asserted by the randomized property
  tests): every transaction the previous sweep left in the graph failed
  its condition then, deletions themselves never flip another
  transaction's condition from false to true, and the engine's
  :class:`~repro.core.dirty.DirtyTracker` over-approximates every other
  false→true trigger — so restricting the scan to the dirty set yields
  byte-identical selections.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import FrozenSet, Optional, Sequence

from repro.core.conditions import noncurrent_transactions
from repro.core.multiwrite_conditions import can_delete_multiwrite
from repro.core.optimal import greedy_safe_deletion_set, maximum_safe_deletion_set
from repro.core.predeclared_conditions import can_delete_predeclared
from repro.graphs.bitclosure import iter_bits
from repro.model.steps import TxnId

__all__ = [
    "DeletionPolicy",
    "NeverDeletePolicy",
    "Lemma1Policy",
    "NoncurrentPolicy",
    "EagerC1Policy",
    "OptimalPolicy",
    "EagerC4Policy",
    "EagerC3Policy",
]


class DeletionPolicy(ABC):
    """Base class: decide which completed transactions to forget."""

    #: Short name used in reports and benchmark tables.
    name: str = "abstract"

    #: See the module docstring ("Sweep gating").  Conservative defaults:
    #: a custom policy is always invoked with a full scan.
    completion_gated: bool = False
    dirty_events: Optional[str] = None

    @abstractmethod
    def select(
        self, scheduler, dirty: Optional[FrozenSet[TxnId]] = None
    ) -> FrozenSet[TxnId]:
        """The set of transactions to delete from ``scheduler.graph`` now.

        ``dirty`` (only passed when :attr:`dirty_events` is set) restricts
        which completed transactions are re-examined; ``None`` means all.
        """

    def apply(self, scheduler) -> FrozenSet[TxnId]:
        """Select and immediately delete; returns what was removed."""
        chosen = self.select(scheduler)
        scheduler.delete_transactions(sorted(chosen))
        return chosen

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NeverDeletePolicy(DeletionPolicy):
    """Keep everything — the degenerate policy whose unbounded graph growth
    motivates the paper (§1: "we cannot keep transactions indefinitely")."""

    name = "never"
    completion_gated = True  # selects nothing either way

    def select(self, scheduler, dirty=None) -> FrozenSet[TxnId]:
        return frozenset()


class Lemma1Policy(DeletionPolicy):
    """Delete completed transactions with no active predecessors.

    Safe in *every* model: such a transaction has no active (tight or
    otherwise) predecessor, so conditions C1, C3 and C4 all hold vacuously,
    and no two members interact (nothing in the set has demands at all), so
    the set deletion satisfies C2.  In the multiwrite model only committed
    members are selected (an F transaction may still abort and must keep
    its identity for the cascade).
    """

    name = "lemma1"
    # New arcs only add ancestors; actives disappear only by completing or
    # aborting — in every model.
    completion_gated = True

    def select(self, scheduler, dirty=None) -> FrozenSet[TxnId]:
        # Mask-native: one AND per committed bit against the maintained
        # ancestor row, ids materialized only for the selected.  Walking
        # the *committed* mask is the FINISHED exclusion (multiwrite F
        # transactions are exactly completed - committed).
        graph = scheduler.graph
        anc_row = graph.kernel.anc_row
        active = graph.active_mask
        chosen = 0
        for index in iter_bits(graph.committed_mask):
            if not anc_row(index) & active:
                chosen |= 1 << index
        return frozenset(graph.unmask(chosen))


class NoncurrentPolicy(DeletionPolicy):
    """Delete every noncurrent completed transaction (Corollary 1).

    Safety sketch (formalized in the test suite by checking C2 on every
    selection): for each accessed entity ``x`` of a noncurrent ``Ti``, the
    *current last writer* ``W_x`` of ``x`` is completed, never itself
    noncurrent while it remains last writer (so it is still in the graph),
    and sits at the head of an arc ``Ti -> W_x``; hence every active tight
    predecessor of ``Ti`` has the tight successor ``W_x ∉ N`` accessing
    ``x`` maximally.  Requires the *basic* model: currency is tracked from
    accepted atomic final writes, which aborts can never retract.
    """

    name = "noncurrent"
    # In the basic/certifier models currency is lost only at a write,
    # which always completes (or certifies) its transaction.
    completion_gated = True

    def select(self, scheduler, dirty=None) -> FrozenSet[TxnId]:
        return noncurrent_transactions(scheduler.currency, scheduler.graph)


class EagerC1Policy(DeletionPolicy):
    """Delete a maximal greedy C2-safe subset every time (basic model)."""

    name = "eager-c1"
    completion_gated = True
    # Basic model: an active transaction's accesses never witness C1 and
    # arcs only point *into* active transactions, so C1 status flips only
    # at completions and aborts.
    dirty_events = "completions"

    def __init__(self, priority: Optional[Sequence[TxnId]] = None) -> None:
        self._priority = priority

    def select(self, scheduler, dirty=None) -> FrozenSet[TxnId]:
        return greedy_safe_deletion_set(
            scheduler.graph, self._priority, restrict=dirty
        )


class OptimalPolicy(DeletionPolicy):
    """Delete a *maximum* safe subset (exact, exponential — Theorem 5).

    Practical only on small graphs; exists so experiments can measure how
    much the greedy policy leaves on the table.
    """

    name = "optimal"
    completion_gated = True  # basic model, same argument as eager-c1

    def __init__(self, max_candidates: int = 30) -> None:
        self._max_candidates = max_candidates

    def select(self, scheduler, dirty=None) -> FrozenSet[TxnId]:
        return maximum_safe_deletion_set(
            scheduler.graph, max_candidates=self._max_candidates
        )


class EagerC4Policy(DeletionPolicy):
    """Repeatedly delete any transaction C4 admits (predeclared model).

    Theorem 2 covers sequences of single safe deletions, so the selection
    is computed by simulation: delete one admissible transaction,
    re-evaluate, repeat to a fixed point.  The simulation runs as a
    *trial* on the live graph — deletions go on an undo log and are
    reverted when the fixed point is reached, instead of copying the
    whole graph per sweep.
    """

    name = "eager-c4"
    # Predeclared arcs run *out of* the stepping transaction and executed
    # accesses of actives do witness C4, so any step can flip C4 status.
    dirty_events = "steps"

    def select(self, scheduler, dirty=None) -> FrozenSet[TxnId]:
        graph = scheduler.graph
        chosen: set[TxnId] = set()
        with graph.trial_deletions():
            progress = True
            while progress:
                progress = False
                for txn in sorted(graph.completed_transactions()):
                    if dirty is not None and txn not in dirty:
                        continue
                    if can_delete_predeclared(graph, txn):
                        graph.delete(txn)
                        chosen.add(txn)
                        progress = True
        return frozenset(chosen)


class EagerC3Policy(DeletionPolicy):
    """Repeatedly delete any committed transaction C3 admits (multiwrite).

    Each C3 test enumerates abort sets — exponential in the number of
    active transactions (Theorem 6 says that is unavoidable in general);
    ``max_actives`` bounds the damage.  Like :class:`EagerC4Policy`, the
    fixed point runs as a trial on the live graph (undo log, no copy).
    """

    name = "eager-c3"
    dirty_events = "steps"

    def __init__(self, max_actives: int = 12) -> None:
        self._max_actives = max_actives

    def select(self, scheduler, dirty=None) -> FrozenSet[TxnId]:
        graph = scheduler.graph
        chosen: set[TxnId] = set()
        with graph.trial_deletions():
            progress = True
            while progress:
                progress = False
                for txn in sorted(graph.committed_transactions()):
                    if dirty is not None and txn not in dirty:
                        continue
                    if can_delete_multiwrite(
                        graph, txn, max_actives=self._max_actives
                    ):
                        graph.delete(txn)
                        chosen.add(txn)
                        progress = True
        return frozenset(chosen)
