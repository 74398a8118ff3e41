"""The predeclared-transactions scheduler (§5, Rules 1'-3').

When transactions predeclare what they will read and write, *"aborts can be
avoided.  The conflict scheduler can use the extra information to predict
future cycles in the conflict graph and prevent them from happening by
delaying steps.  It does so by adding an arc to the graph as soon as the
first of the two conflicting steps takes place."*

Rules (paraphrasing §5):

* **Rule 1'** — when ``Ti`` starts (and declares), add a node, and for
  every transaction that has already *executed* a step conflicting with a
  declared future step of ``Ti``, add an arc into ``Ti``.  (Never cyclic:
  the new node has no outgoing arcs.)
* **Rules 2' & 3'** — when ``Ti`` executes a read/write of ``x``: for every
  other transaction ``Tk`` that *will* perform a conflicting step on ``x``
  in the future, add ``Ti -> Tk`` — unless that would close a cycle, in
  which case ``Ti``'s step **waits** until ``Tk`` has executed its
  conflicting step.

Invariant maintained (asserted by the tests): for every pair of conflicting
*executed* steps of live transactions, the graph has an arc in execution
order — inserted at the first of the two steps, or at the later
transaction's BEGIN.

There is no deadlock: if ``Ti`` waits for ``Tk`` the graph has a path
``Tk ->* Ti``, and the graph is acyclic at all times, so the waits-for
relation is too (§5).  Delayed steps are parked in per-transaction FIFO
queues and retried after every executed step; released steps are reported
in the releasing step's :class:`~repro.scheduler.events.StepResult`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.reduced_graph import ReducedGraph
from repro.errors import InvalidStepError, SchedulerError
from repro.model.entities import Entity
from repro.model.status import AccessMode, TxnState
from repro.model.steps import (
    BeginDeclared,
    Finish,
    Read,
    Step,
    TxnId,
    WriteItem,
)
from repro.scheduler.base import SchedulerBase
from repro.scheduler.events import Decision, StepResult

__all__ = ["PredeclaredScheduler"]


class PredeclaredScheduler(SchedulerBase):
    """Delay-based conflict-graph scheduler for predeclared transactions.

    >>> from repro.model.status import AccessMode as M
    >>> from repro.model.steps import BeginDeclared, Read, WriteItem, Finish
    >>> sched = PredeclaredScheduler()
    >>> _ = sched.feed(BeginDeclared("A", {"x": M.READ}))
    >>> _ = sched.feed(BeginDeclared("B", {"x": M.WRITE, "y": M.READ}))
    >>> r = sched.feed(Read("A", "x"))    # arc A->B (B will write x)
    >>> r.arcs_added
    (('A', 'B'),)
    >>> r = sched.feed(WriteItem("B", "x"))
    >>> r.decision                        # no cycle: executes
    <Decision.ACCEPTED: 'accepted'>
    """

    delays = True

    def __init__(self, graph: Optional[ReducedGraph] = None) -> None:
        super().__init__(graph)
        # Parked steps per transaction, in program order.  When seeded with
        # an existing (reduced) graph — as the lockstep safety checks do —
        # every pre-existing transaction needs its (empty) queue.
        self._pending: Dict[TxnId, Deque[Step]] = {
            txn: deque() for txn in self.graph
        }

    # -- public views ------------------------------------------------------------

    def waiting_transactions(self) -> Dict[TxnId, Tuple[Step, ...]]:
        """Transactions with parked steps, and those steps in order."""
        return {
            txn: tuple(queue) for txn, queue in self._pending.items() if queue
        }

    # -- shard migration ------------------------------------------------------------

    def _extract_extra_group(self, txns, entities):
        # Parked steps must follow their transaction: they are retried
        # after every executed step of the *shard that owns the group*,
        # and their blockers (declared future conflictors) are group-local
        # by construction.  Declared futures themselves live in the graph
        # payload (TxnInfo.future) and travel with it.
        return {
            "pending": {
                txn: self._pending.pop(txn)
                for txn in sorted(txns)
                if txn in self._pending
            }
        }

    def _absorb_extra_group(self, extra):
        self._pending.update(extra["pending"])

    # -- checkpointing ------------------------------------------------------------

    def _snapshot_extra(self):
        from repro.io import step_to_dict

        return {
            "pending": {
                txn: [step_to_dict(step) for step in queue]
                for txn, queue in sorted(self._pending.items())
            },
        }

    def _restore_extra(self, extra):
        from repro.io import step_from_dict

        self._pending = {
            txn: deque(step_from_dict(d) for d in items)
            for txn, items in extra["pending"].items()
        }

    # -- driving --------------------------------------------------------------------

    def _process(self, step: Step) -> StepResult:
        if isinstance(step, BeginDeclared):
            return self._on_begin(step)
        if isinstance(step, (Read, WriteItem)):
            return self._enqueue_or_execute(step)
        if isinstance(step, Finish):
            return self._enqueue_or_execute(step)
        raise InvalidStepError(
            f"{type(step).__name__} is not a predeclared-model step; "
            "predeclared transactions begin with BeginDeclared"
        )

    # -- Rule 1' ------------------------------------------------------------------

    def _on_begin(self, step: BeginDeclared) -> StepResult:
        declared = dict(step.declared)
        self.graph.add_transaction(step.txn, TxnState.ACTIVE, declared=declared)
        self.currency.on_enter(step.txn)
        self._pending[step.txn] = deque()
        # Rule 1' arcs via the entity index: a declared WRITE conflicts with
        # every executed access of the entity, a declared READ only with
        # executed writes — no whole-graph scan.
        conflictors: set[TxnId] = set()
        for entity, future_mode in declared.items():
            threshold = (
                AccessMode.READ if future_mode.is_write else AccessMode.WRITE
            )
            conflictors.update(self.graph.accessors_of(entity, threshold))
        conflictors.discard(step.txn)
        arcs: List[Tuple[TxnId, TxnId]] = [
            (other, step.txn) for other in sorted(conflictors)
        ]
        for tail, head in arcs:
            self.graph.add_arc(tail, head)
        released = self._drain_pending()
        return StepResult(
            step, Decision.ACCEPTED, arcs_added=tuple(arcs), released=tuple(released)
        )

    # -- Rules 2' & 3' ----------------------------------------------------------------

    def _enqueue_or_execute(self, step: Step) -> StepResult:
        self._require_known_active(step.txn)
        queue = self._pending[step.txn]
        if queue:
            # Program order: earlier steps of this transaction still parked.
            queue.append(step)
            return StepResult(step, Decision.DELAYED, blocked_on=())
        outcome = self._try_execute(step)
        if outcome is None:
            blockers = self._blockers_of(step)
            queue.append(step)
            return StepResult(step, Decision.DELAYED, blocked_on=tuple(sorted(blockers)))
        arcs, committed = outcome
        self._retire_if_finished(step)
        released = self._drain_pending()
        return StepResult(
            step,
            Decision.ACCEPTED,
            arcs_added=tuple(arcs),
            committed=tuple(committed),
            released=tuple(released),
        )

    def _future_conflictors(self, step: Step) -> List[TxnId]:
        """Transactions with a declared, unexecuted access conflicting with
        *step* — the targets of Rule 2'/3' arcs."""
        if isinstance(step, Finish):
            return []
        mode = AccessMode.WRITE if isinstance(step, WriteItem) else AccessMode.READ
        # A write conflicts with every declared future access of the
        # entity; a read only with declared future writes.  One bucket of
        # the future-entity index — no whole-graph scan.
        threshold = AccessMode.READ if mode.is_write else AccessMode.WRITE
        conflictors = self.graph.future_declarers_of(step.entity, threshold)
        return sorted(other for other in conflictors if other != step.txn)

    def _try_execute(self, step: Step) -> Optional[Tuple[List[Tuple[TxnId, TxnId]], List[TxnId]]]:
        """Execute *step* if no required arc closes a cycle; else ``None``."""
        if isinstance(step, Finish):
            info = self.graph.info(step.txn)
            if info.future:
                raise InvalidStepError(
                    f"{step.txn!r} finished with undeclared-but-unexecuted "
                    f"accesses remaining: {sorted(info.future)}"
                )
            self.graph.set_state(step.txn, TxnState.COMMITTED)
            self.history.executed.append(step)
            return ([], [step.txn])

        mode = AccessMode.WRITE if isinstance(step, WriteItem) else AccessMode.READ
        entity = step.entity
        self._validate_declared(step.txn, entity, mode)
        required = [
            (step.txn, other) for other in self._future_conflictors(step)
        ]
        new_arcs = [
            arc for arc in required if not self.graph.has_arc(*arc)
        ]
        if self.graph.would_arcs_close_cycle(new_arcs):
            return None
        for tail, head in new_arcs:
            self.graph.add_arc(tail, head)
        self.graph.record_access(step.txn, entity, mode)
        self.graph.consume_future(step.txn, entity, mode)
        if mode.is_write:
            self.currency.on_write(step.txn, entity)
        else:
            self.currency.on_read(step.txn, entity)
        self.history.executed.append(step)
        return (new_arcs, [])

    def _validate_declared(self, txn: TxnId, entity: Entity, mode: AccessMode) -> None:
        future = self.graph.info(txn).future
        if future is None:
            raise SchedulerError(
                f"{txn!r} was not started with BeginDeclared"
            )
        declared = future.get(entity)
        if declared is None:
            raise InvalidStepError(
                f"{txn!r} executed an undeclared (or repeated) access of "
                f"{entity!r}"
            )
        if declared != mode:
            raise InvalidStepError(
                f"{txn!r} declared {declared} on {entity!r} but executed {mode}"
            )

    def _blockers_of(self, step: Step) -> Set[TxnId]:
        """The transactions whose future conflicting step this one waits for
        (the heads of would-be cycle-closing arcs)."""
        blockers: Set[TxnId] = set()
        for other in self._future_conflictors(step):
            if not self.graph.has_arc(step.txn, other) and self.graph.would_close_cycle(
                step.txn, other
            ):
                blockers.add(other)
        return blockers

    # -- retry machinery ---------------------------------------------------------------

    def _drain_pending(self) -> List[Step]:
        """Retry parked steps until a fixed point; return those released.

        Each pass scans transactions in sorted order for determinism and
        retries only the *head* of each queue (program order).  Progress is
        guaranteed for steps whose blockers execute: the waits-for relation
        embeds in the inverse reachability of an acyclic graph.
        """
        released: List[Step] = []
        progress = True
        while progress:
            progress = False
            for txn in sorted(self._pending):
                queue = self._pending[txn]
                if not queue:
                    continue
                head = queue[0]
                outcome = self._try_execute(head)
                if outcome is None:
                    continue
                queue.popleft()
                self._retire_if_finished(head)
                released.append(head)
                progress = True
        return released

    def _retire_if_finished(self, step: Step) -> None:
        """Nothing can follow an executed FINISH: drop its transaction's
        (empty) queue, or the table — live state, checkpointed in every
        core — would keep one entry per transaction ever begun."""
        if isinstance(step, Finish) and not self._pending[step.txn]:
            del self._pending[step.txn]
