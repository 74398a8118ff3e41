"""Naive reference implementations of the hot-path queries and policies.

The optimized stack (entity indexes, epoch-memoized tight sets, trial
deletions — :mod:`repro.core.reduced_graph`) must return *byte-identical*
answers to the straightforward formulations it replaced.  This module keeps
those straightforward formulations alive:

* as oracles for the randomized property tests (``naive_*`` recompute every
  query from scratch, snapshot copies included);
* as the measured baseline for ``benchmarks/bench_hotpaths.py``
  (``legacy_select_*`` reproduce the pre-optimization policy evaluation,
  full graph copies and all).

This is deliberately *slow* analysis/oracle code — the ``as_digraph()`` /
``copy()`` calls here are the whole point; never import it from a
scheduler or policy hot path.

The object-set :class:`~repro.graphs.closure.ClosureGraph` lives on here
as the **reference closure kernel** (exported as
:data:`ReferenceClosureGraph`): the production stack runs on the bitset
kernel (:class:`~repro.graphs.bitclosure.BitClosureGraph`), and
:func:`reference_closure_of` rebuilds an independent set-based closure
from a live graph's plain arcs so the property tests can compare the two
row for row.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence

from repro.core.optimal import greedy_safe_deletion_set
from repro.core.predeclared_conditions import can_delete_predeclared
from repro.core.reduced_graph import ReducedGraph
from repro.errors import DeletionError, NotCompletedError, UnknownTransactionError
from repro.graphs.closure import ClosureGraph as ReferenceClosureGraph
from repro.graphs.paths import (
    has_restricted_path,
    reachable_from,
    restricted_predecessors,
    restricted_successors,
)
from repro.model.entities import Entity
from repro.model.status import AccessMode, TxnState
from repro.model.steps import TxnId
from repro.tracking import CurrencyTracker

__all__ = [
    "ReferenceClosureGraph",
    "reference_closure_of",
    "naive_tight_predecessors",
    "naive_tight_successors",
    "naive_active_tight_predecessors",
    "naive_completed_tight_successors",
    "naive_accessors_of",
    "naive_noncurrent_transactions",
    "legacy_copy",
    "NaiveGraphView",
    "legacy_select_eager_c1",
    "legacy_select_eager_c4",
    "legacy_select_eager_c3",
]


# ---------------------------------------------------------------------------
# Naive queries (fresh snapshot copy per call — the pre-optimization cost)
# ---------------------------------------------------------------------------


def _completed_predicate(graph: ReducedGraph):
    return lambda node: graph.info(node).state.is_completed


def reference_closure_of(graph: ReducedGraph) -> ReferenceClosureGraph:
    """An independent set-based closure over *graph*'s plain arcs.

    Built arc by arc through the reference kernel's own ``add_arc``
    propagation — nothing is copied from the bitset kernel's closure rows,
    so comparing the two row for row is a genuine cross-check.
    """
    mirror = ReferenceClosureGraph()
    for txn in graph.nodes():
        mirror.add_node(txn)
    for tail, head in graph.arcs():
        mirror.add_arc(tail, head)
    return mirror


def naive_tight_predecessors(graph: ReducedGraph, txn: TxnId) -> FrozenSet[TxnId]:
    """Tight predecessors via a full digraph snapshot (no cache)."""
    return restricted_predecessors(
        graph.as_digraph(), txn, _completed_predicate(graph)
    )


def naive_tight_successors(graph: ReducedGraph, txn: TxnId) -> FrozenSet[TxnId]:
    return restricted_successors(
        graph.as_digraph(), txn, _completed_predicate(graph)
    )


def naive_active_tight_predecessors(
    graph: ReducedGraph, txn: TxnId
) -> FrozenSet[TxnId]:
    return frozenset(
        node
        for node in naive_tight_predecessors(graph, txn)
        if graph.info(node).state.is_active
    )


def naive_completed_tight_successors(
    graph: ReducedGraph, txn: TxnId
) -> FrozenSet[TxnId]:
    return frozenset(
        node
        for node in naive_tight_successors(graph, txn)
        if graph.info(node).state.is_completed
    )


def naive_accessors_of(
    graph: ReducedGraph,
    entity: Entity,
    at_least: AccessMode = AccessMode.READ,
) -> FrozenSet[TxnId]:
    """Entity accessors by scanning every node (no inverted index)."""
    return frozenset(
        txn
        for txn in graph
        if graph.info(txn).accesses_at_least(entity, at_least)
    )


def naive_noncurrent_transactions(
    currency: CurrencyTracker, graph: ReducedGraph
) -> FrozenSet[TxnId]:
    """Corollary 1 selection by scanning every entity row and every
    completed transaction — independent of the tracker's maintained
    holdings and candidate set."""
    current = set(currency.last_writer.values())
    for readers in currency.readers_since_write.values():
        current.update(readers)
    return frozenset(
        txn for txn in graph.completed_transactions() if txn not in current
    )


def legacy_copy(graph: ReducedGraph) -> ReducedGraph:
    """The pre-optimization :meth:`ReducedGraph.copy`: rebuild the closure
    arc by arc through ``add_arc`` propagation (quadratic in practice)."""
    clone = ReducedGraph()
    digraph = graph.as_digraph()
    for txn in digraph.nodes():
        info = graph.info(txn)
        clone.add_transaction(
            txn,
            info.state,
            declared=None if info.future is None else dict(info.future),
        )
        for entity, mode in info.accesses.items():
            clone.record_access(txn, entity, mode)
        clone.info(txn).reads_from.update(info.reads_from)
    # Arc insertion order does not matter for an acyclic graph.
    for tail, head in digraph.arcs():
        clone.add_arc(tail, head)
    clone._deleted.update(graph.deleted_transactions())
    clone._aborted.update(graph.aborted_transactions())
    return clone


# ---------------------------------------------------------------------------
# Legacy policy evaluation (what the policies did before this optimization)
# ---------------------------------------------------------------------------


class NaiveGraphView:
    """A read-only facade over a :class:`ReducedGraph` that answers the
    tight-path queries naively (snapshot per call, no memoization).

    Implements exactly the surface :func:`repro.core.optimal.compute_demands`
    and :func:`repro.core.conditions.c1_violations` touch, so the greedy
    machinery can run unchanged at pre-optimization cost.  The mask-valued
    queries borrow the live graph's id assignment (ids are representation,
    not state) but compute their *contents* naively: tight sets from
    per-call snapshots, accessor masks from full node scans.
    """

    def __init__(self, graph: ReducedGraph) -> None:
        self._graph = graph

    def __contains__(self, txn: object) -> bool:
        return txn in self._graph

    def info(self, txn: TxnId):
        return self._graph.info(txn)

    def state(self, txn: TxnId) -> TxnState:
        return self._graph.state(txn)

    def completed_transactions(self) -> FrozenSet[TxnId]:
        return frozenset(
            txn
            for txn in self._graph
            if self._graph.info(txn).state.is_completed
        )

    def active_tight_predecessors(self, txn: TxnId) -> FrozenSet[TxnId]:
        return naive_active_tight_predecessors(self._graph, txn)

    def completed_tight_successors(self, txn: TxnId) -> FrozenSet[TxnId]:
        return naive_completed_tight_successors(self._graph, txn)

    # -- mask surface (naive contents over the live id assignment) ---------

    def bit_of(self, txn: TxnId) -> int:
        return self._graph.bit_of(txn)

    def mask_of(self, txns) -> int:
        return self._graph.mask_of(txns)

    def unmask(self, mask: int):
        return self._graph.unmask(mask)

    def accessors_mask(
        self, entity: Entity, at_least: AccessMode = AccessMode.READ
    ) -> int:
        return self._graph.mask_of(naive_accessors_of(self._graph, entity, at_least))

    def active_tight_predecessors_mask(self, txn: TxnId) -> int:
        return self._graph.mask_of(self.active_tight_predecessors(txn))

    def completed_tight_successors_mask(self, txn: TxnId) -> int:
        return self._graph.mask_of(self.completed_tight_successors(txn))


def legacy_select_eager_c1(
    graph: ReducedGraph, priority: Optional[Sequence[TxnId]] = None
) -> FrozenSet[TxnId]:
    """EagerC1Policy.select as it was: greedy over naive tight queries."""
    return greedy_safe_deletion_set(NaiveGraphView(graph), priority)


def legacy_select_eager_c4(graph: ReducedGraph) -> FrozenSet[TxnId]:
    """EagerC4Policy.select as it was: full graph copy + fixed point."""
    trial = legacy_copy(graph)
    chosen: set[TxnId] = set()
    progress = True
    while progress:
        progress = False
        for txn in sorted(trial.completed_transactions()):
            if can_delete_predeclared(trial, txn):
                trial.delete(txn)
                chosen.add(txn)
                progress = True
    return frozenset(chosen)


def _naive_can_delete_multiwrite(
    graph: ReducedGraph, candidate: TxnId, max_actives: int
) -> bool:
    """C3 as it was: digraph snapshot + materialized ``G − M⁺`` subgraphs."""
    import itertools

    from repro.core.multiwrite_conditions import dependents_closure

    if candidate not in graph:
        raise UnknownTransactionError(candidate)
    state = graph.state(candidate)
    if state is not TxnState.COMMITTED:
        raise NotCompletedError(candidate, state)
    actives = sorted(graph.active_transactions())
    if len(actives) > max_actives:
        raise DeletionError(
            f"C3 check needs 2^{len(actives)} abort-set evaluations; "
            f"max_actives={max_actives}"
        )
    accesses = dict(graph.info(candidate).accesses)
    if not accesses:
        return True
    is_completed = _completed_predicate(graph)
    base = graph.as_digraph()
    for size in range(len(actives) + 1):
        for abort_set in itertools.combinations(actives, size):
            closure = dependents_closure(graph, abort_set)
            surviving = base.subgraph_without(closure)
            alive = [
                node
                for node in surviving
                if node != candidate and graph.state(node).is_active
            ]
            for pred in sorted(alive):
                if not has_restricted_path(
                    surviving, pred, candidate, via=is_completed
                ):
                    continue
                reachable = reachable_from(surviving, pred)
                for entity in sorted(accesses):
                    required = accesses[entity]
                    witnessed = any(
                        other != candidate
                        and graph.info(other).accesses_at_least(entity, required)
                        for other in reachable
                    )
                    if not witnessed:
                        return False
    return True


def legacy_select_eager_c3(
    graph: ReducedGraph, max_actives: int = 12
) -> FrozenSet[TxnId]:
    """EagerC3Policy.select as it was: full copy + snapshot-based C3."""
    trial = legacy_copy(graph)
    chosen: set[TxnId] = set()
    progress = True
    while progress:
        progress = False
        for txn in sorted(trial.committed_transactions()):
            if _naive_can_delete_multiwrite(trial, txn, max_actives):
                trial.delete(txn)
                chosen.add(txn)
                progress = True
    return frozenset(chosen)
