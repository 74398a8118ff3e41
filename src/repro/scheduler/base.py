"""Common scheduler machinery.

:class:`SchedulerBase` owns the bookkeeping every variant shares:

* the history log (:class:`~repro.scheduler.history.HistoryLog`): one
  result per step processed, whose steps are the paper's input schedule
  ``s``;
* the accepted subschedule (projection on non-aborted transactions);
* per-entity *currency* tracking — for each entity, who wrote the current
  value and who has read it since: the input to Corollary 1's
  noncurrency test.  Currency is a property of the accepted history, **not**
  of the (possibly reduced) graph, which is why it lives here and not in
  :class:`~repro.core.reduced_graph.ReducedGraph`.

Concrete schedulers implement ``_process(step)`` and call the protected
recording helpers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.reduced_graph import ReducedGraph
from repro.errors import SchedulerError, SnapshotError
from repro.io import (
    currency_from_dict,
    currency_to_dict,
    graph_from_dict,
    graph_to_dict,
)
from repro.model.entities import Entity
from repro.model.schedule import Schedule
from repro.model.steps import Step, TxnId
from repro.scheduler.events import Decision, StepResult
from repro.scheduler.history import HistoryLog
from repro.tracking import CurrencyTracker

__all__ = ["SchedulerBase", "CurrencyTracker"]


class SchedulerBase(ABC):
    """Shared driving protocol; subclasses implement :meth:`_process`."""

    #: A delaying scheduler (strict 2PL, predeclared) executes a step later
    #: than it arrives, so execution order is a history list of its own —
    #: ``history.executed``, appended by its ``_process`` — rather than
    #: the accepted prefix of the results.
    delays = False

    def __init__(self, graph: Optional[ReducedGraph] = None) -> None:
        # The graph may be seeded (the oracle starts schedulers from G and
        # from D(G, N)); by default it starts empty, like CG(λ) = E.
        self.graph: ReducedGraph = graph if graph is not None else ReducedGraph()
        self.currency = CurrencyTracker()
        self._enter_residents()  # a seeded graph's nodes hold nothing yet
        self.history = HistoryLog(delays=self.delays)
        self._aborted: Set[TxnId] = set()

    # -- driving --------------------------------------------------------------

    def feed(self, step: Step) -> StepResult:
        """Process one step and record the outcome.

        Steps of transactions that already aborted are IGNORED without
        touching the variant's rules (§2: the arriving stream may contain
        steps of meanwhile-aborted transactions).  A step whose
        ``_process`` raises is refused and recorded nowhere.
        """
        if step.txn in self._aborted:
            result = StepResult(step, Decision.IGNORED)
        else:
            result = self._process(step)
        self.history.record_result(result)
        self._aborted.update(result.aborted)
        return result

    def feed_many(self, steps: Iterable[Step]) -> List[StepResult]:
        """Feed steps from *any* iterable, one at a time.

        Contract (regression-tested): each step is pulled from the
        iterable only after the previous one has been fully processed, so
        generator workloads work without an intermediate input list.
        """
        return [self.feed(step) for step in steps]

    def run(self, schedule: Schedule | Iterable[Step]) -> List[StepResult]:
        """Feed a whole schedule; alias of :meth:`feed_many`."""
        return self.feed_many(schedule)

    @abstractmethod
    def _process(self, step: Step) -> StepResult:
        """Apply the variant's rules to one step."""

    # -- views ------------------------------------------------------------------

    @property
    def input_schedule(self) -> Schedule:
        """Every step processed — the paper's raw stream ``s`` (a refused
        step, whose processing raised, is not part of it)."""
        return Schedule(tuple(result.step for result in self.history.results))

    @property
    def results(self) -> Tuple[StepResult, ...]:
        return tuple(self.history.results)

    @property
    def aborted(self) -> FrozenSet[TxnId]:
        return frozenset(self._aborted)

    def accepted_subschedule(self) -> Schedule:
        """Projection of the input on non-aborted transactions (§2).

        Note: delayed steps (predeclared/locking) appear in the accepted
        subschedule only once they actually execute.
        """
        return self.executed_schedule().accepted_subschedule(self._aborted)

    def executed_schedule(self) -> Schedule:
        """Steps in the order they *executed*.

        For non-delaying schedulers this is the accepted prefix order of the
        input; a delaying one records its own order.
        """
        if self.delays:
            return Schedule(tuple(self.history.executed))
        executed = [
            result.step
            for result in self.history.results
            if result.decision is Decision.ACCEPTED
        ]
        return Schedule(tuple(executed))

    def delete_transaction(self, txn: TxnId) -> None:
        """Apply ``D(G, txn)`` to the live graph.

        Structural operation only — callers (deletion policies, the runner)
        are responsible for checking the governing safety condition first.
        The history log records it at this scheduler's step count.
        """
        self.graph.delete(txn)
        self.currency.on_leave(txn)
        self.history.record_deletion(len(self.history.results), txn)

    def delete_transactions(self, txns: Iterable[TxnId]) -> None:
        for txn in txns:
            self.delete_transaction(txn)

    # -- checkpointing ------------------------------------------------------------

    def snapshot_state(self, *, include_logs: bool = True) -> Dict[str, Any]:
        """A JSON-ready dict of the complete scheduler state.

        Captures the reduced graph, the currency tracker, the aborted set,
        the history log as rows, and whatever variant-specific live state
        :meth:`_snapshot_extra` contributes (parked step queues, lock
        tables, certification clocks, ...); the graph's tombstones are the
        log's deletions.  ``include_logs=False`` leaves the log out,
        recording lengths instead (:meth:`HistoryLog.splice` puts it back;
        the contract: :meth:`Engine.snapshot`).
        """
        state = {
            "graph": graph_to_dict(self.graph, include_deleted=False),
            "currency": currency_to_dict(self.currency),
            "aborted": sorted(self._aborted),
            "extra": self._snapshot_extra(),
        }
        self.history.write(state, include_logs=include_logs)
        return state

    def restore_state(self, payload: Dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot_state`; overwrites this instance."""
        try:
            self.history = HistoryLog.from_rows(payload, delays=self.delays)
            graph = {**payload["graph"], "deleted": self.history.deleted}
            self.graph = graph_from_dict(graph)
            self.currency = currency_from_dict(payload["currency"])
            self._enter_residents()
            self._aborted = set(payload["aborted"])
        except (KeyError, ValueError, TypeError) as exc:
            raise SnapshotError(f"malformed scheduler snapshot: {exc}") from exc
        self._restore_extra(payload.get("extra") or {})

    def _snapshot_extra(self) -> Dict[str, Any]:
        """Variant-specific state; subclasses with state beyond the base
        bookkeeping override both this and :meth:`_restore_extra`."""
        return {}

    def _restore_extra(self, extra: Dict[str, Any]) -> None:
        if extra:
            raise SnapshotError(
                f"{type(self).__name__} cannot restore extra state "
                f"{sorted(extra)}; snapshot was taken by a different variant?"
            )

    # -- shard migration ----------------------------------------------------------

    def sync_clock(self, tick: int) -> None:
        """Advance any internal logical clock to at least *tick*.

        A sharded engine calls this with its global step counter before
        every feed, so schedulers whose decisions compare event
        timestamps (the certifier) stay order-consistent with a
        monolithic run even when groups migrate between shards.  The base
        scheduler keeps no clock; this is a no-op.
        """

    def extract_group(
        self, txns: Iterable[TxnId], entities: Iterable[Entity]
    ) -> Dict[str, Any]:
        """Remove one footprint group's state and return it for absorption.

        The counterpart of :meth:`absorb_group`; together they implement
        shard migration (see :mod:`repro.sharding`).  Moves the group's
        graph nodes (closure rows via the bit kernel's snapshot/patch
        pair), the currency rows of the group's entities, and whatever
        variant-specific state :meth:`_extract_extra_group` contributes
        (parked step queues, lock-table rows, certification times, ...).
        The history log stays behind: it is arrival history of *this*
        scheduler, consulted only by views, never by decisions.

        The returned payload holds **live objects** — it is an in-process
        handoff, not a serialization format (snapshots are).
        """
        txn_set = set(txns)
        entity_set = set(entities)
        for txn in txn_set:
            self.currency.on_leave(txn)  # residency moves with the nodes
        return {
            "graph": self.graph.extract_subgraph(txn_set),
            "currency": self.currency.extract(entity_set),
            "extra": self._extract_extra_group(txn_set, entity_set),
        }

    def absorb_group(self, payload: Dict[str, Any]) -> None:
        """Install a group extracted from another scheduler of this type."""
        self.graph.install_subgraph(payload["graph"])
        self.currency.absorb(payload["currency"])
        for info in payload["graph"]["infos"]:
            self.currency.on_enter(info.txn)
        self._absorb_extra_group(payload["extra"])

    def _extract_extra_group(
        self, txns: set, entities: set
    ) -> Dict[str, Any]:
        """Variant-specific migration state; override in pairs with
        :meth:`_absorb_extra_group`."""
        return {}

    def _absorb_extra_group(self, extra: Dict[str, Any]) -> None:
        if extra:
            raise SchedulerError(
                f"{type(self).__name__} cannot absorb extra group state "
                f"{sorted(extra)}; was it extracted by a different variant?"
            )

    # -- shared helpers for subclasses -------------------------------------------

    def _enter_residents(self) -> None:
        """Tell a fresh tracker which transactions the graph holds (a
        seeded graph, a restored snapshot): residency is derived state."""
        for txn in self.graph:
            self.currency.on_enter(txn)

    def _require_known_active(self, txn: TxnId) -> None:
        if txn not in self.graph:
            raise SchedulerError(
                f"step of unknown transaction {txn!r} (no BEGIN seen, or it "
                "already aborted/completed)"
            )
        if not self.graph.state(txn).is_active:
            raise SchedulerError(
                f"step of non-active transaction {txn!r} "
                f"({self.graph.state(txn)})"
            )
