"""The multiple-write-step scheduler (§5).

Transactions are arbitrary sequences of read and write steps; values become
visible as soon as they are written, so *"a transaction A may read an entity
written by an active transaction B.  In this case we say that A depends
directly on B."*  Consequences faithfully implemented here:

* **Three states** — active (A), finished-but-uncommitted (F), committed
  (C).  FINISH moves a transaction to F; it reaches C only once every
  transaction it (transitively) depends on has committed.
* **Cascading aborts** — when B aborts, every transaction that depends on B
  aborts too, recursively, whatever its state (F included; C never — a
  committed transaction by definition depends only on committed ones).
* **Conflict-graph rules** — per-step versions of Rules 2-3: a read of
  ``x`` draws arcs from every writer of ``x``; a write of ``x`` draws arcs
  from every reader and writer of ``x``.  A cycle-creating step aborts the
  issuer (and its dependents).

Deletion of *committed* transactions from this scheduler's graph is governed
by condition C3 (:mod:`repro.core.multiwrite_conditions`), which Theorem 6
proves NP-complete to refute.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.reduced_graph import ReducedGraph
from repro.errors import InvalidStepError
from repro.model.entities import Entity
from repro.model.status import AccessMode, TxnState
from repro.model.steps import Begin, Finish, Read, Step, TxnId, WriteItem
from repro.scheduler.base import SchedulerBase
from repro.scheduler.events import Decision, StepResult

__all__ = ["MultiwriteScheduler"]


class MultiwriteScheduler(SchedulerBase):
    """Conflict-graph scheduler for the §5 multiple-write-step model.

    >>> from repro.model.steps import Begin, Read, WriteItem, Finish
    >>> sched = MultiwriteScheduler()
    >>> for s in [Begin("B"), WriteItem("B", "x"), Begin("A"), Read("A", "x")]:
    ...     _ = sched.feed(s)
    >>> sched.depends_on("A")  # A read x from the active B
    frozenset({'B'})
    >>> _ = sched.feed(Finish("A"))
    >>> sched.graph.state("A")   # finished, cannot commit yet
    <TxnState.FINISHED: 'finished'>
    >>> r = sched.feed(Finish("B"))
    >>> sorted(r.committed)      # B commits, unblocking A
    ['A', 'B']
    """

    def __init__(self, graph: Optional[ReducedGraph] = None) -> None:
        super().__init__(graph)
        # Direct dependencies: txn -> transactions it read dirty data from.
        # Mirrored into the graph payloads (TxnInfo.reads_from) so the C3
        # checker can work from the graph alone.
        self._last_writer: Dict[Entity, TxnId] = {}

    # -- queries ---------------------------------------------------------------

    def depends_on(self, txn: TxnId) -> frozenset:
        """Direct dependencies of *txn* that are not yet committed."""
        info = self.graph.info(txn)
        return frozenset(
            other
            for other in info.reads_from
            if other in self.graph
            and self.graph.state(other) is not TxnState.COMMITTED
        )

    def transitive_dependencies(self, txn: TxnId) -> frozenset:
        """Everything *txn* depends on, transitively (the ``depends``
        relation of §5)."""
        seen: Set[TxnId] = set()
        stack = [txn]
        while stack:
            node = stack.pop()
            if node not in self.graph:
                continue
            for other in self.graph.info(node).reads_from:
                if other not in seen and other in self.graph:
                    seen.add(other)
                    stack.append(other)
        return frozenset(seen)

    def dependents_of(self, txn: TxnId) -> frozenset:
        """Every transaction that (transitively) depends on *txn* — the set
        that must abort with it."""
        reverse: Dict[TxnId, Set[TxnId]] = {}
        for node in self.graph:
            for target in self.graph.info(node).reads_from:
                reverse.setdefault(target, set()).add(node)
        seen: Set[TxnId] = set()
        stack = [txn]
        while stack:
            node = stack.pop()
            for dependent in reverse.get(node, ()):
                if dependent not in seen:
                    seen.add(dependent)
                    stack.append(dependent)
        return frozenset(seen)

    # -- step processing ----------------------------------------------------------

    def _process(self, step: Step) -> StepResult:
        if isinstance(step, Begin):
            return self._on_begin(step)
        if isinstance(step, Read):
            return self._on_read(step)
        if isinstance(step, WriteItem):
            return self._on_write_item(step)
        if isinstance(step, Finish):
            return self._on_finish(step)
        raise InvalidStepError(
            f"{type(step).__name__} is not a multiwrite-model step"
        )

    def _on_begin(self, step: Begin) -> StepResult:
        self.graph.add_transaction(step.txn, TxnState.ACTIVE)
        self.currency.on_enter(step.txn)
        return StepResult(step, Decision.ACCEPTED)

    def _on_read(self, step: Read) -> StepResult:
        self._require_known_active(step.txn)
        # Sorted so the reported arc order is independent of interner id
        # layout (a sharded shard's ids differ from a monolith's).
        arcs = [
            (writer, step.txn)
            for writer in sorted(self.graph.writers_of(step.entity))
            if writer != step.txn and not self.graph.has_arc(writer, step.txn)
        ]
        if self.graph.would_arcs_close_cycle(arcs):
            return self._abort_cascade(step)
        for tail, head in arcs:
            self.graph.add_arc(tail, head)
        self.graph.record_access(step.txn, step.entity, AccessMode.READ)
        self.currency.on_read(step.txn, step.entity)
        # Dirty-read dependency: reading a value written by a transaction
        # that has not committed yet.
        writer = self._last_writer.get(step.entity)
        if (
            writer is not None
            and writer != step.txn
            and writer in self.graph
            and self.graph.state(writer) is not TxnState.COMMITTED
        ):
            self.graph.info(step.txn).reads_from.add(writer)
        return StepResult(step, Decision.ACCEPTED, arcs_added=tuple(arcs))

    def _on_write_item(self, step: WriteItem) -> StepResult:
        self._require_known_active(step.txn)
        arcs = [
            (other, step.txn)
            for other in sorted(
                self.graph.accessors_of(step.entity, AccessMode.READ)
            )
            if other != step.txn and not self.graph.has_arc(other, step.txn)
        ]
        if self.graph.would_arcs_close_cycle(arcs):
            return self._abort_cascade(step)
        for tail, head in arcs:
            self.graph.add_arc(tail, head)
        self.graph.record_access(step.txn, step.entity, AccessMode.WRITE)
        self.currency.on_write(step.txn, step.entity)
        self._last_writer[step.entity] = step.txn
        return StepResult(step, Decision.ACCEPTED, arcs_added=tuple(arcs))

    def _on_finish(self, step: Finish) -> StepResult:
        self._require_known_active(step.txn)
        self.graph.set_state(step.txn, TxnState.FINISHED)
        committed = self._commit_ready()
        return StepResult(step, Decision.ACCEPTED, committed=tuple(committed))

    # -- shard migration ------------------------------------------------------------

    def _extract_extra_group(self, txns, entities):
        # Dirty-read dependencies (TxnInfo.reads_from) travel inside the
        # graph payload; the only loose per-entity state is the
        # last-writer mark each entity's next dirty read consults.
        return {
            "last_writer": {
                entity: self._last_writer.pop(entity)
                for entity in sorted(entities)
                if entity in self._last_writer
            }
        }

    def _absorb_extra_group(self, extra):
        self._last_writer.update(extra["last_writer"])

    # -- checkpointing ------------------------------------------------------------

    def _snapshot_extra(self):
        return {"last_writer": dict(sorted(self._last_writer.items()))}

    def _restore_extra(self, extra):
        self._last_writer = dict(extra["last_writer"])

    # -- commit / abort machinery ----------------------------------------------------

    def _commit_ready(self) -> List[TxnId]:
        """Promote F transactions whose dependencies are all committed.

        Iterates to a fixed point: committing one transaction may unblock
        others that read from it.
        """
        committed: List[TxnId] = []
        changed = True
        while changed:
            changed = False
            for txn in sorted(self.graph.nodes()):
                if self.graph.state(txn) is not TxnState.FINISHED:
                    continue
                if self.depends_on(txn):
                    continue
                self.graph.set_state(txn, TxnState.COMMITTED)
                committed.append(txn)
                changed = True
        return committed

    def _abort_cascade(self, step: Step) -> StepResult:
        """Abort the issuer plus everything depending on it (§5)."""
        victims = {step.txn} | set(self.dependents_of(step.txn))
        for victim in sorted(victims):
            if victim in self.graph:
                self.graph.abort(victim)
            self.currency.forget(victim)
            for entity in list(self._last_writer):
                if self._last_writer[entity] == victim:
                    del self._last_writer[entity]
        # An abort can unblock nobody (dependencies only shrink when a
        # transaction *commits*), but it can leave F transactions whose
        # remaining dependencies are all committed — e.g. when the aborted
        # transaction was *not* among their dependencies yet shared none.
        committed = self._commit_ready()
        return StepResult(
            step,
            Decision.REJECTED,
            aborted=tuple(sorted(victims)),
            committed=tuple(committed),
        )
