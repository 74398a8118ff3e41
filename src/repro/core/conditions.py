"""Single-deletion conditions for the basic model (§3).

* :func:`has_no_active_predecessors` — Lemma 1's *sufficient* condition:
  a completed transaction with no active predecessors never joins a future
  cycle (its predecessor set is frozen forever).
* :func:`can_delete` — condition **C1** of Theorem 1, the necessary *and*
  sufficient condition: for every active tight predecessor ``Tj`` of ``Ti``
  and every entity ``x`` accessed by ``Ti``, some completed tight successor
  ``Tk ≠ Ti`` of ``Tj`` accesses ``x`` at least as strongly as ``Ti``.
  By Theorem 3 the same condition characterizes safety on arbitrary
  *reduced* graphs, which is what makes repeated deletion sound.
* :func:`is_noncurrent` — Corollary 1's sufficient condition: a completed
  transaction all of whose accessed entities have been overwritten since
  can be removed (the last writer of each entity witnesses C1).

The functions take a :class:`~repro.core.reduced_graph.ReducedGraph`
(conflict graphs are the special case) and are pure queries — they never
mutate the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.core.reduced_graph import ReducedGraph
from repro.errors import NotCompletedError, UnknownTransactionError
from repro.model.entities import Entity
from repro.model.status import AccessMode
from repro.model.steps import TxnId
from repro.tracking import CurrencyTracker

__all__ = [
    "C1Violation",
    "can_delete",
    "c1_violations",
    "has_no_active_predecessors",
    "is_noncurrent",
    "noncurrent_transactions",
]


@dataclass(frozen=True)
class C1Violation:
    """A witness pair refuting condition C1 for ``candidate``.

    ``active_pred`` is an active tight predecessor of the candidate and
    ``entity`` an entity the candidate accessed, such that no completed
    tight successor of ``active_pred`` (other than the candidate) accesses
    ``entity`` at least as strongly as the candidate does.

    These are exactly the "(Tj, x)" witness pairs the paper uses both in
    the necessity proof of Theorem 1 (to build a diverging continuation)
    and in the ``a·e`` bound argument at the end of §4.
    """

    candidate: TxnId
    active_pred: TxnId
    entity: Entity
    required_mode: AccessMode

    def __str__(self) -> str:
        return (
            f"C1 violated for {self.candidate}: active tight predecessor "
            f"{self.active_pred} has no completed tight successor accessing "
            f"{self.entity!r} at least as strongly ({self.required_mode})"
        )


def _require_completed(graph: ReducedGraph, txn: TxnId) -> None:
    if txn not in graph:
        raise UnknownTransactionError(txn)
    state = graph.state(txn)
    if not state.is_completed:
        raise NotCompletedError(txn, state)


def has_no_active_predecessors(graph: ReducedGraph, txn: TxnId) -> bool:
    """Lemma 1's test: no active transaction reaches *txn*.

    Once a transaction completes it never acquires new immediate
    predecessors, so a completed transaction with no active predecessors
    has a frozen predecessor set and can never join a cycle.  Sufficient
    but not necessary for deletability (Example 1's ``T2`` fails it yet is
    deletable).  One AND on the maintained ancestor row and active mask.
    """
    _require_completed(graph, txn)
    return not (graph.ancestors_mask(txn) & graph.active_mask)


def c1_violations(
    graph: ReducedGraph,
    candidate: TxnId,
    first_only: bool = False,
) -> List[C1Violation]:
    """All witness pairs (Tj, x) refuting C1 for *candidate* (empty = C1
    holds).

    For each active tight predecessor ``Tj`` of the candidate, the
    completed tight successors of ``Tj`` are computed once; each accessed
    entity ``x`` of the candidate then needs one of them (≠ candidate) to
    access ``x`` at least as strongly.
    """
    _require_completed(graph, candidate)
    violations: List[C1Violation] = []
    accesses = graph.info(candidate).accesses
    if not accesses:
        return violations  # no entities: C1 vacuously true
    candidate_bit = graph.bit_of(candidate)
    active_preds = graph.active_tight_predecessors_mask(candidate)
    entities = sorted(accesses)
    for pred in sorted(graph.unmask(active_preds)):
        # Completed tight successors of the predecessor, minus the
        # candidate; each entity's coverage test is then a single AND
        # against the entity's accessor mask.
        successors = (
            graph.completed_tight_successors_mask(pred) & ~candidate_bit
        )
        for entity in entities:
            required = accesses[entity]
            if not (graph.accessors_mask(entity, required) & successors):
                violations.append(
                    C1Violation(candidate, pred, entity, required)
                )
                if first_only:
                    return violations
    return violations


def can_delete(graph: ReducedGraph, candidate: TxnId) -> bool:
    """Condition C1 (Theorem 1 / Theorem 3): is the single deletion of
    *candidate* safe?

    >>> from repro.model.status import AccessMode, TxnState
    >>> g = ReducedGraph()
    >>> for t in ("T1", "T2"):
    ...     g.add_transaction(t)
    >>> g.record_access("T1", "x", AccessMode.READ)
    >>> g.record_access("T2", "x", AccessMode.WRITE)
    >>> g.add_arc("T1", "T2")
    >>> g.set_state("T2", TxnState.COMMITTED)
    >>> can_delete(g, "T2")   # T1 is an uncovered active tight predecessor
    False
    """
    return not c1_violations(graph, candidate, first_only=True)


def is_noncurrent(
    currency: CurrencyTracker,
    graph: ReducedGraph,
    txn: TxnId,
) -> bool:
    """Corollary 1's test, evaluated against the *true* history.

    A completed transaction is current if it read or wrote the current
    value of some entity; noncurrent otherwise.  Currency is a property of
    the accepted schedule — the scheduler's
    :class:`~repro.scheduler.base.CurrencyTracker` — **not** of the reduced
    graph: §4 warns that after other deletions the graph alone cannot
    support the corollary (Example 1: deleting ``T3`` leaves the noncurrent
    ``T2`` undeletable).
    """
    _require_completed(graph, txn)
    return not currency.is_current(txn)


def noncurrent_transactions(
    currency: CurrencyTracker,
    graph: ReducedGraph,
) -> FrozenSet[TxnId]:
    """All completed transactions that Corollary 1 lets us remove.

    The tracker maintains the resident transactions holding no current
    value (:meth:`CurrencyTracker.idle_transactions`); the selection is
    its members that have completed.  Cost is O(candidates) — the
    transactions that lapsed since the last sweep plus the few active
    ones holding nothing — independent of how many completed
    transactions the graph retains.  A pure query: a candidate leaves
    the tracker's set when it leaves the graph, not when it is returned.

    **Precondition:** *currency* must have been told *graph*'s membership
    through :meth:`~CurrencyTracker.on_enter` /
    :meth:`~CurrencyTracker.on_leave` — every scheduler does this for its
    own tracker, including after a restore or a migration.  A tracker fed
    only ``on_read``/``on_write`` beside an independently built graph has
    no resident transactions, so this returns ``frozenset()`` even where
    :func:`is_noncurrent` (which needs no residency) answers ``True``;
    ``core.reference.naive_noncurrent_transactions`` is the scan that
    needs neither.
    """
    return frozenset(
        txn
        for txn in currency.iter_idle()
        if txn in graph and graph.is_completed(txn)
    )
