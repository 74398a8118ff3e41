"""The basic conflict-graph scheduler (§2, Rules 1-3).

The preventive scheduler: *"the conflict graph of the schedule seen so far
of the completed and active transactions is maintained step-by-step.  A new
step of a transaction is accepted only if it does not create a cycle;
otherwise, the transaction aborts."*

Rules (quoted from §2):

* **Rule 1** — BEGIN of a new transaction ``Ti``: a node is added.
* **Rule 2** — read ``x`` by ``Ti``: an arc from every node that has
  written ``x`` to ``Ti``.
* **Rule 3** — the (final, atomic) write step of ``Ti``: for every written
  entity ``x`` and every node ``Tj`` that previously read or wrote ``x``,
  an arc ``Tj -> Ti``.

A cycle-creating step aborts its transaction, which is removed from the
graph (no bypass arcs).  In the basic model the final write completes the
transaction, and — because writes are atomic at the end — a completed
transaction may commit immediately; we mark it COMMITTED.

The same class serves as the paper's function ``F`` on *reduced* graphs
(§4): seed the constructor with any reduced graph and the rules are applied
to it unchanged — exactly how the safety oracle runs the original and the
reduced scheduler in lockstep.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.reduced_graph import ReducedGraph
from repro.errors import InvalidStepError
from repro.model.status import AccessMode, TxnState
from repro.model.steps import Begin, Read, Step, TxnId, Write
from repro.scheduler.base import SchedulerBase
from repro.scheduler.events import Decision, StepResult

__all__ = ["ConflictGraphScheduler"]


class ConflictGraphScheduler(SchedulerBase):
    """Preventive conflict-graph scheduler for the basic model.

    >>> from repro.model.steps import Begin, Read, Write
    >>> sched = ConflictGraphScheduler()
    >>> _ = sched.feed(Begin("T1"))
    >>> _ = sched.feed(Read("T1", "x"))
    >>> _ = sched.feed(Begin("T2"))
    >>> _ = sched.feed(Read("T2", "x"))
    >>> r = sched.feed(Write("T2", {"x"}))   # T1 read x before: arc T1->T2
    >>> r.arcs_added
    (('T1', 'T2'),)
    >>> r2 = sched.feed(Write("T1", {"x"}))  # would add T2->T1: cycle
    >>> r2.decision
    <Decision.REJECTED: 'rejected'>
    >>> sorted(sched.aborted)
    ['T1']
    """

    def __init__(self, graph: Optional[ReducedGraph] = None) -> None:
        super().__init__(graph)

    def _process(self, step: Step) -> StepResult:
        if isinstance(step, Begin):
            return self._on_begin(step)
        if isinstance(step, Read):
            return self._on_read(step)
        if isinstance(step, Write):
            return self._on_write(step)
        raise InvalidStepError(
            f"{type(step).__name__} is not a basic-model step; use the "
            "multiwrite or predeclared scheduler for it"
        )

    # -- Rule 1 -----------------------------------------------------------------

    def _on_begin(self, step: Begin) -> StepResult:
        self.graph.add_transaction(step.txn, TxnState.ACTIVE)
        self.currency.on_enter(step.txn)
        return StepResult(step, Decision.ACCEPTED)

    # -- Rule 2 -----------------------------------------------------------------

    def _on_read(self, step: Read) -> StepResult:
        self._require_known_active(step.txn)
        arcs = self._read_arcs(step.txn, step.entity)
        if self.graph.would_arcs_close_cycle(arcs):
            return self._abort(step)
        for tail, head in arcs:
            self.graph.add_arc(tail, head)
        self.graph.record_access(step.txn, step.entity, AccessMode.READ)
        self.currency.on_read(step.txn, step.entity)
        return StepResult(step, Decision.ACCEPTED, arcs_added=tuple(arcs))

    def _read_arcs(self, txn: TxnId, entity: str) -> List[Tuple[TxnId, TxnId]]:
        # Sorted so the reported arc order is independent of interner id
        # layout (a sharded shard's ids differ from a monolith's).
        return [
            (writer, txn)
            for writer in sorted(self.graph.writers_of(entity))
            if writer != txn and not self.graph.has_arc(writer, txn)
        ]

    # -- Rule 3 -----------------------------------------------------------------

    def _on_write(self, step: Write) -> StepResult:
        self._require_known_active(step.txn)
        arcs = self._write_arcs(step.txn, step.entities)
        if self.graph.would_arcs_close_cycle(arcs):
            return self._abort(step)
        for tail, head in arcs:
            self.graph.add_arc(tail, head)
        for entity in step.entities:
            self.graph.record_access(step.txn, entity, AccessMode.WRITE)
            self.currency.on_write(step.txn, entity)
        # The final write completes the transaction; with atomic final
        # writes no dirty data was ever read, so it commits immediately.
        self.graph.set_state(step.txn, TxnState.COMMITTED)
        return StepResult(
            step,
            Decision.ACCEPTED,
            arcs_added=tuple(arcs),
            committed=(step.txn,),
        )

    def _write_arcs(self, txn: TxnId, entities) -> List[Tuple[TxnId, TxnId]]:
        arcs: List[Tuple[TxnId, TxnId]] = []
        seen: set[TxnId] = set()
        for entity in sorted(entities):
            for other in sorted(self.graph.accessors_of(entity, AccessMode.READ)):
                if other != txn and other not in seen:
                    seen.add(other)
                    if not self.graph.has_arc(other, txn):
                        arcs.append((other, txn))
        return arcs

    # -- abort --------------------------------------------------------------------

    def _abort(self, step: Step) -> StepResult:
        self.graph.abort(step.txn)
        self.currency.forget(step.txn)
        return StepResult(step, Decision.REJECTED, aborted=(step.txn,))
