"""Strict two-phase locking — the §1 baseline.

*"If pure locking is used to control concurrency (i.e., the scheduler just
manages locks), then it is easy to see that transactions can be closed at
commit time."*  This scheduler exists to reproduce that claim empirically
(experiment E10): it retains **no** per-transaction metadata after commit,
in contrast to the conflict-graph schedulers whose graphs grow until a
deletion condition prunes them.

Semantics
---------
* ``Read(T, x)`` acquires a shared lock on ``x`` (blocking while another
  transaction holds ``x`` exclusively).
* The final atomic ``Write(T, X)`` acquires exclusive locks on every entity
  of ``X`` (upgrading T's own shared locks where held), installs the
  values, **commits, and releases everything** — strict 2PL: all locks held
  to commit.
* Blocked steps are parked per transaction (program order) and retried
  after every lock release, FIFO across transactions.
* Deadlock is detected on the waits-for graph (waiter → current holders of
  the locks it needs).  A request that closes a cycle aborts the requester;
  cycles that only become apparent during retries (lock sets change as
  parked steps execute) are broken by aborting the largest transaction id
  on the cycle — any victim choice preserves correctness, a fixed one keeps
  runs deterministic.  With atomic final writes nothing dirty was ever
  read, so aborts never cascade.

The accepted subschedule of a strict-2PL execution is always conflict
serializable (checked in the integration tests via the offline analyzer) —
but 2PL accepts strictly fewer schedules than the conflict-graph scheduler,
which experiment E10 also quantifies.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import InvalidStepError, SchedulerError
from repro.model.entities import Entity
from repro.model.steps import Begin, Read, Step, TxnId, Write
from repro.scheduler.base import SchedulerBase
from repro.scheduler.events import Decision, StepResult

__all__ = ["StrictTwoPhaseLocking"]


class _LockTable:
    """Entity -> holders.  Shared locks coexist; exclusive locks are sole."""

    def __init__(self) -> None:
        self.shared: Dict[Entity, Set[TxnId]] = {}
        self.exclusive: Dict[Entity, TxnId] = {}

    def blockers_share(self, txn: TxnId, entity: Entity) -> Set[TxnId]:
        holder = self.exclusive.get(entity)
        return set() if holder is None or holder == txn else {holder}

    def blockers_exclusive(self, txn: TxnId, entity: Entity) -> Set[TxnId]:
        blockers: Set[TxnId] = set()
        holder = self.exclusive.get(entity)
        if holder is not None and holder != txn:
            blockers.add(holder)
        blockers.update(self.shared.get(entity, set()) - {txn})
        return blockers

    def grant_shared(self, txn: TxnId, entity: Entity) -> None:
        self.shared.setdefault(entity, set()).add(txn)

    def grant_exclusive(self, txn: TxnId, entity: Entity) -> None:
        self.exclusive[entity] = txn
        self.shared.get(entity, set()).discard(txn)

    def release_all(self, txn: TxnId) -> None:
        for sharers in self.shared.values():
            sharers.discard(txn)
        for entity in list(self.exclusive):
            if self.exclusive[entity] == txn:
                del self.exclusive[entity]

    def held_by(self, txn: TxnId) -> Set[Entity]:
        held = {e for e, sharers in self.shared.items() if txn in sharers}
        held.update(e for e, holder in self.exclusive.items() if holder == txn)
        return held


class StrictTwoPhaseLocking(SchedulerBase):
    """Strict 2PL scheduler for basic-model step streams.

    >>> from repro.model.steps import Begin, Read, Write
    >>> sched = StrictTwoPhaseLocking()
    >>> for s in [Begin("T1"), Read("T1", "x"), Begin("T2")]:
    ...     _ = sched.feed(s)
    >>> sched.feed(Write("T2", {"x"})).decision  # T1 holds shared x
    <Decision.DELAYED: 'delayed'>
    >>> r = sched.feed(Write("T1", set()))       # T1 commits, releasing x
    >>> [str(s) for s in r.released]
    ['w{x}(T2)']
    >>> sched.retained_transactions()            # closed at commit: nobody
    frozenset()
    """

    delays = True

    def __init__(self) -> None:
        # Locking needs no conflict graph at all; the base-class graph stays
        # empty and unused — that absence *is* the paper's point.
        super().__init__()
        self._locks = _LockTable()
        self._pending: Dict[TxnId, Deque[Step]] = {}
        self._active: Set[TxnId] = set()
        self._waits_for: Dict[TxnId, Set[TxnId]] = {}

    # -- views -----------------------------------------------------------------

    def retained_transactions(self) -> frozenset:
        """Transactions about which the scheduler still holds state.

        Strict 2PL closes transactions at commit, so this is exactly the
        set of uncommitted (active) transactions.
        """
        return frozenset(self._active)

    def committed_transactions(self) -> Tuple[TxnId, ...]:
        """Commit order.  Every commit is reported by exactly one result
        (a step's own final write, or a released one's), so the results
        log is the record — no list of its own to carry forever."""
        return tuple(t for r in self.history.results for t in r.committed)

    def waiting_transactions(self) -> Dict[TxnId, Tuple[Step, ...]]:
        return {txn: tuple(q) for txn, q in self._pending.items() if q}

    def locks_held(self, txn: TxnId) -> Set[Entity]:
        return self._locks.held_by(txn)

    # -- shard migration ------------------------------------------------------------

    def _extract_extra_group(self, txns, entities):
        # The whole variant state is entity- or transaction-keyed: lock
        # rows follow the entities; queues, activity, and waits-for edges
        # follow the transactions.  Waits-for edges never cross a
        # footprint group (a blocker holds a lock on a shared entity), so
        # deadlock detection stays complete after the move.
        shared = {
            entity: self._locks.shared.pop(entity)
            for entity in sorted(entities)
            if entity in self._locks.shared
        }
        exclusive = {
            entity: self._locks.exclusive.pop(entity)
            for entity in sorted(entities)
            if entity in self._locks.exclusive
        }
        pending = {
            txn: self._pending.pop(txn)
            for txn in sorted(txns)
            if txn in self._pending
        }
        active = sorted(self._active & set(txns))
        self._active -= set(active)
        waits_for = {
            txn: self._waits_for.pop(txn)
            for txn in sorted(txns)
            if txn in self._waits_for
        }
        return {
            "shared": shared,
            "exclusive": exclusive,
            "pending": pending,
            "active": active,
            "waits_for": waits_for,
        }

    def _absorb_extra_group(self, extra):
        self._locks.shared.update(extra["shared"])
        self._locks.exclusive.update(extra["exclusive"])
        self._pending.update(extra["pending"])
        self._active.update(extra["active"])
        self._waits_for.update(extra["waits_for"])

    # -- checkpointing ------------------------------------------------------------

    def _snapshot_extra(self):
        from repro.io import step_to_dict

        return {
            "shared": {
                entity: sorted(holders)
                for entity, holders in sorted(self._locks.shared.items())
                if holders
            },
            "exclusive": dict(sorted(self._locks.exclusive.items())),
            "pending": {
                txn: [step_to_dict(step) for step in queue]
                for txn, queue in sorted(self._pending.items())
            },
            "active": sorted(self._active),
            "waits_for": {
                txn: sorted(blockers)
                for txn, blockers in sorted(self._waits_for.items())
            },
        }

    def _restore_extra(self, extra):
        from repro.io import step_from_dict

        self._locks = _LockTable()
        for entity, holders in extra["shared"].items():
            self._locks.shared[entity] = set(holders)
        self._locks.exclusive.update(extra["exclusive"])
        self._pending = {
            txn: deque(step_from_dict(d) for d in items)
            for txn, items in extra["pending"].items()
        }
        self._active = set(extra["active"])
        self._waits_for = {
            txn: set(blockers) for txn, blockers in extra["waits_for"].items()
        }

    # -- driving -----------------------------------------------------------------

    def _process(self, step: Step) -> StepResult:
        if isinstance(step, Begin):
            return self._on_begin(step)
        if isinstance(step, (Read, Write)):
            return self._enqueue_or_execute(step)
        raise InvalidStepError(f"{type(step).__name__} is not a basic-model step")

    def _on_begin(self, step: Begin) -> StepResult:
        if step.txn in self._active:
            raise SchedulerError(f"transaction {step.txn!r} already active")
        self._active.add(step.txn)
        self._pending[step.txn] = deque()
        return StepResult(step, Decision.ACCEPTED)

    def _enqueue_or_execute(self, step: Step) -> StepResult:
        if step.txn not in self._active:
            raise SchedulerError(
                f"step of unknown/finished transaction {step.txn!r}"
            )
        queue = self._pending[step.txn]
        if queue:  # program order behind an already-parked step
            queue.append(step)
            return StepResult(step, Decision.DELAYED, blocked_on=())
        blockers = self._blockers(step)
        if not blockers:
            committed = list(self._execute(step))
            released, late_commits, aborted = self._drain_pending()
            return StepResult(
                step,
                Decision.ACCEPTED,
                committed=tuple(committed + late_commits),
                released=tuple(released),
                aborted=tuple(aborted),
            )
        # Blocked: a request closing a waits-for cycle aborts the requester.
        self._waits_for[step.txn] = blockers
        if self._on_cycle(step.txn):
            aborted = list(self._abort(step.txn))
            released, late_commits, more_aborted = self._drain_pending()
            return StepResult(
                step,
                Decision.REJECTED,
                aborted=tuple(aborted + more_aborted),
                committed=tuple(late_commits),
                released=tuple(released),
            )
        queue.append(step)
        return StepResult(step, Decision.DELAYED, blocked_on=tuple(sorted(blockers)))

    # -- lock mechanics --------------------------------------------------------------

    def _blockers(self, step: Step) -> Set[TxnId]:
        if isinstance(step, Read):
            return self._locks.blockers_share(step.txn, step.entity)
        assert isinstance(step, Write)
        blockers: Set[TxnId] = set()
        for entity in step.entities:
            blockers.update(self._locks.blockers_exclusive(step.txn, entity))
        return blockers

    def _execute(self, step: Step) -> Tuple[TxnId, ...]:
        """Grant locks and perform the step; returns ids committed by it."""
        self._waits_for.pop(step.txn, None)
        if isinstance(step, Read):
            self._locks.grant_shared(step.txn, step.entity)
            self.currency.on_read(step.txn, step.entity)
            self.history.executed.append(step)
            return ()
        assert isinstance(step, Write)
        for entity in step.entities:
            self._locks.grant_exclusive(step.txn, entity)
            self.currency.on_write(step.txn, entity)
        self.history.executed.append(step)
        # Strict 2PL: commit and close at the final write.
        self._locks.release_all(step.txn)
        self._active.discard(step.txn)
        self._pending.pop(step.txn, None)
        return (step.txn,)

    def _drain_pending(self) -> Tuple[List[Step], List[TxnId], List[TxnId]]:
        """Retry parked steps to a fixed point, breaking any deadlocks.

        Returns (released steps, transactions committed by released steps,
        deadlock victims aborted).
        """
        released: List[Step] = []
        committed: List[TxnId] = []
        aborted: List[TxnId] = []
        while True:
            progress = False
            for txn in sorted(self._pending):
                queue = self._pending.get(txn)
                if not queue:
                    continue
                head = queue[0]
                blockers = self._blockers(head)
                if blockers:
                    self._waits_for[txn] = blockers
                    continue
                self._waits_for.pop(txn, None)
                queue.popleft()
                committed.extend(self._execute(head))
                released.append(head)
                progress = True
            if progress:
                continue
            victim = self._deadlocked_victim()
            if victim is None:
                break
            aborted.extend(self._abort(victim))
        return released, committed, aborted

    # -- deadlock handling -------------------------------------------------------------

    def _on_cycle(self, requester: TxnId) -> bool:
        """Is *requester* on a waits-for cycle (through its new edge)?"""
        seen: Set[TxnId] = set()
        stack = list(self._waits_for.get(requester, ()))
        while stack:
            txn = stack.pop()
            if txn == requester:
                return True
            if txn in seen:
                continue
            seen.add(txn)
            stack.extend(self._waits_for.get(txn, ()))
        return False

    def _deadlocked_victim(self) -> Optional[TxnId]:
        """Largest transaction id on any waits-for cycle, or ``None``."""
        on_cycle = [txn for txn in self._waits_for if self._on_cycle(txn)]
        return max(on_cycle) if on_cycle else None

    def _abort(self, txn: TxnId) -> Tuple[TxnId, ...]:
        self._locks.release_all(txn)
        self._active.discard(txn)
        self._pending.pop(txn, None)
        self._waits_for.pop(txn, None)
        self.currency.forget(txn)
        return (txn,)
