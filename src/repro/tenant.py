"""One hosted engine: its queue, its one background task, its lifecycle.

A :class:`Tenant` owns everything about one engine a
:class:`~repro.server.ReproServer` hosts and nothing about sockets or
JSON, so a test can drive one with no socket at all.

Concurrency model
-----------------
Everything runs on one event loop; engines are plain synchronous objects
and are **never** shared across loops or threads.

* **Write path.**  The tenant owns a :class:`asyncio.Queue` and a single
  worker coroutine.  :meth:`Tenant.submit` enqueues a work item and
  awaits its future; the worker drains items in FIFO order, feeding
  steps synchronously and awaiting ``asyncio.sleep(0)`` every
  ``yield_every`` steps so one hot tenant cannot starve the loop (or the
  read path) during a large batch.  Per-tenant order is total — exactly
  the serial step stream the paper's scheduler model assumes.
* **Admission control.**  The queue bound is measured in *steps*, not
  items.  A write that would push the backlog past ``max_queue_depth``
  is rejected immediately with a structured ``saturated`` error carrying
  ``retry_after`` — the backlog divided by an exponential moving average
  of the recent drain rate — instead of blocking (a hang is
  indistinguishable from an outage to a remote caller).
* **Reads** never queue: the worker only mutates the engine between
  awaits and every ``engine.feed`` leaves it consistent, so a read
  between drain chunks observes a step boundary.

Lifecycle
---------
Exactly one task owns a tenant at a time — the **worker** of a serving
primary, the **heal** loop of a primary in an outage, the **tail** of a
replica — in one slot.  :data:`TRANSITIONS` and :data:`PERMITS` below are
the whole lifecycle, and :meth:`Tenant._transition` its only writer.  An
outage is the interval between leaving ``serving`` and returning to it,
so *one outage is one demotion however many attempts fail inside it*.
A model-level error (a rejected step, an unsafe sweep) is the engine
answering and goes to the caller; an **infrastructure** failure — a
storage ``OSError``, a :class:`~repro.errors.DurabilityError`, any
unexpected exception — is a ``fail``: queued writes get a structured
``degraded`` error (the write was *not* acknowledged) while reads keep
answering from the last consistent state.

A **writer** heals by re-running :func:`~repro.durability.recover` in an
executor thread (the old engine keeps answering reads, so the replay may
leave the loop) under a bounded attempt budget; once it is spent the
tenant stays degraded with ``recovery_exhausted`` flagged and the
server may promote a replica in its place.  A **replica** rebuilds its
:class:`~repro.replication.WalFollower` inline (reads answer from the
follower's engine, so a threaded replay would race them) and has no
budget — the primary may simply be down for a while.  Both obey one
rule, *not serving ⇒ rebuild before touching the log again*, and pause
through the same jittered, capped, doubling backoff.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.durability import DurableEngine, recover
from repro.errors import (
    DurabilityError,
    NotPrimaryError,
    ProtocolError,
    ReplicaLaggingError,
    ReproError,
    RequestRejectedError,
    TenantDegradedError,
    TenantSaturatedError,
    WalLockedError,
)
from repro.faults import FaultyIO, InjectedFault
from repro.replication import WalFollower

__all__ = ["Tenant", "TenantCounters"]

#: Seed for a tenant's per-step drain-time EMA before any batch has been
#: measured — pessimistic enough that early retry hints are not zero.
_EMA_SEED_SECONDS = 50e-6
_EMA_ALPHA = 0.2

#: role -> (state, event) -> next state.  An absent pair cannot happen.
#: A replica has no budget, so no ``attempt`` / ``exhaust``, and is never
#: ``recovering`` (its rebuild is inline: nobody could observe it).
TRANSITIONS: Dict[str, Dict[tuple, str]] = {
    "primary": {
        ("serving", "fail"): "degraded",        # outage opens: demotions+1
        ("degraded", "attempt"): "recovering",  # recover_attempts+1
        ("recovering", "fail"): "degraded",     # records why, nothing else
        ("recovering", "recover"): "serving",   # outage closes: recoveries+1
        ("degraded", "exhaust"): "degraded",    # recovery_exhausted, for good
    },
    "replica": {
        ("serving", "fail"): "degraded",        # outage opens: demotions+1
        ("degraded", "fail"): "degraded",       # records why, nothing else
        ("degraded", "recover"): "serving",     # outage closes: recoveries+1
        ("serving", "promote"): "serving",      # role = primary, promotions+1
        ("degraded", "promote"): "serving",     # ... and the outage closes
    },
}

#: state -> what it permits beyond reads, which every state answers.
#: In an outage the in-memory seq may run ahead of the log, so
#: ``wal_seq`` is not the acknowledgment ground truth, and the engine is
#: closed or its WAL poisoned, so ``close`` must not checkpoint it.
PERMITS: Dict[str, frozenset] = {
    "serving": frozenset({"write", "wal_seq", "checkpoint"}),
    "degraded": frozenset(),
    "recovering": frozenset(),
}


def _close_engine_quietly(future) -> None:
    """Done-callback for an abandoned in-executor ``recover()``.

    A cancelled heal loop cannot stop the executor thread mid-recovery;
    if that thread later *succeeds*, the engine it built holds the WAL
    lock with no owner.  This callback closes it so the lock frees."""
    if future.cancelled() or future.exception() is not None:
        return
    try:
        future.result().close()
    except Exception:
        pass


def _is_infra_failure(exc: BaseException) -> bool:
    """Storage faults, durability misuse, injected crashes, and any
    exception outside the library's own hierarchy demote the tenant;
    the rest (rejected steps, unsafe sweeps …) are model answers."""
    if isinstance(exc, (DurabilityError, InjectedFault)):
        return True
    return not isinstance(exc, ReproError)


@dataclass
class TenantCounters:
    """Serving-side counters for one tenant (engine stats live on the
    engine; these count what the *server* did on its behalf)."""

    steps_served: int = 0
    batches_served: int = 0
    admissions_rejected: int = 0
    audits_served: int = 0
    reads_served: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class _WorkItem:
    """One queued unit of per-tenant serialized work."""

    kind: str  # "feed" | "sweep" | "flush_pending" | "stop"
    steps: List[Any] = field(default_factory=list)
    future: Optional[asyncio.Future] = None

    @property
    def waiting(self) -> bool:
        """Someone still awaits this item's outcome."""
        return self.future is not None and not self.future.done()


class Tenant:
    """One hosted engine: queue, background task, counters, drain-rate
    EMA, and the lifecycle state machine.

    A primary is given its *engine*; a replica ``replica_of``, and opens
    (and rebuilds) its follower through *follower_factory* — the seam a
    test substitutes.  The options are the server's, which states their
    defaults; *io* and *rng* are shared by all its tenants (the fault
    plan counts every storage call in order; jitter is one draw per
    pause).  *on_exhausted* is called with the tenant when a durable
    primary spends its recovery budget.
    """

    def __init__(
        self,
        name: str,
        engine=None,
        *,
        wal_dir: Optional[str] = None,
        replica_of: Optional[str] = None,
        max_queue_depth: int,
        yield_every: int,
        recover_max_attempts: int,
        recover_backoff: float,
        recover_backoff_cap: float,
        replica_poll_interval: float,
        io: Optional[FaultyIO] = None,
        rng: random.Random,
        on_exhausted: Optional[Callable[["Tenant"], None]] = None,
        follower_factory: Callable[..., WalFollower] = WalFollower,
    ) -> None:
        self.name = name
        self.max_queue_depth = max_queue_depth
        self.yield_every = yield_every
        self.recover_max_attempts = recover_max_attempts
        self.recover_backoff = recover_backoff
        self.recover_backoff_cap = recover_backoff_cap
        self.replica_poll_interval = replica_poll_interval
        self._io = io
        self._rng = rng
        self._on_exhausted = on_exhausted
        self._follower_factory = follower_factory
        # -- replication ------------------------------------------------
        self.replica_of = replica_of
        self.follower: Optional[WalFollower] = None
        if replica_of is not None:
            self.follower = follower_factory(replica_of, io=io)
            wal_dir = replica_of
        self._engine = engine
        self.wal_dir = wal_dir
        self.role = "replica" if self.follower is not None else "primary"
        self.promotions = 0
        # -- write path -------------------------------------------------
        self.queue: asyncio.Queue = asyncio.Queue()
        self.pending_steps = 0
        self.counters = TenantCounters()
        self.ema_step_seconds = _EMA_SEED_SECONDS
        self.closed = False
        #: The one background task that owns this tenant right now:
        #: worker, heal loop, or replica tail.
        self._task: Optional[asyncio.Task] = None
        # -- lifecycle (written by _transition / _back_off only) --------
        self.state = "serving"
        self.last_error: Optional[str] = None
        self.demotions = 0
        self.recoveries = 0
        self.recover_attempts = 0
        self.recovery_exhausted = False
        self.demoted_at: Optional[float] = None
        self.downtime_seconds = 0.0
        self.next_retry_at = 0.0
        self._retry_delay = recover_backoff

    @property
    def engine(self):
        """The tenant's live engine — the follower's replayed engine for
        replicas, the writable (durable or in-memory) engine otherwise."""
        if self.follower is not None:
            return self.follower.engine
        return self._engine

    @property
    def durable(self) -> bool:
        return isinstance(self.engine, DurableEngine)

    # -- lifecycle ----------------------------------------------------------

    def _transition(self, event: str, cause: Optional[BaseException] = None) -> None:
        """Apply one row of :data:`TRANSITIONS`.

        The outage accounting hangs off crossing the ``serving``
        boundary, not off the event, so a failed attempt inside an
        outage can only record why."""
        before = self.state
        after = TRANSITIONS[self.role][before, event]
        now = time.monotonic()
        if before == "serving" and after != "serving":
            self.demotions += 1
            self.demoted_at = now
            self._retry_delay = self.recover_backoff
        elif before != "serving" and after == "serving":
            self.recoveries += 1
            self.downtime_seconds += now - self.demoted_at
            self.demoted_at = None
        if cause is not None:
            self.last_error = f"{type(cause).__name__}: {cause}"
        if event == "attempt":
            self.recover_attempts += 1
        elif event == "exhaust":
            self.recovery_exhausted = True
        elif event == "promote":
            self.role = "primary"
            self.promotions += 1
        self.state = after

    async def _back_off(self) -> None:
        """One pause of the capped, doubling backoff, jittered in
        [0.5, 1.5) by a single draw from the shared source."""
        pause = min(self._retry_delay, self.recover_backoff_cap)
        pause *= 0.5 + self._rng.random()
        self.next_retry_at = time.monotonic() + pause
        self._retry_delay *= 2
        await asyncio.sleep(pause)

    def _spawn(self, run: Callable[[], Any], label: str) -> None:
        """Hand the task slot to *run* — a no-op without a running loop
        (tenants may be created before ``asyncio.run``; :meth:`start`
        is called again from inside it)."""
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        self._task = loop.create_task(run(), name=f"repro-{label}-{self.name}")

    def start(self) -> None:
        """Make sure the task this tenant needs is running: the tail of
        a replica, the worker of a serving primary.  (A primary in an
        outage is owned by its heal loop, or by nobody once exhausted.)"""
        if self._task is not None or self.closed:
            return
        if self.follower is not None:
            self._spawn(self._tail, "tail")
        elif self.state == "serving":
            self._spawn(self._drain, "tenant")

    async def _stop_task(self) -> None:
        """Cancel whatever owns the tenant and wait for it to unwind."""
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    def abandon_storage(self) -> None:
        """Surrender the WAL lock with no checkpoint and no drain: the
        storage below may be failing (a demotion), or the tenant never
        got to serve (its registration is being rolled back)."""
        if self.follower is not None:
            self.follower.close()
        elif self.durable:
            try:
                self.engine.close()
            except Exception:
                pass

    async def close(self) -> None:
        """Drain the queue, checkpoint if durable and serving, release
        the storage."""
        self.closed = True
        if self.follower is not None:
            await self._stop_task()
            self.follower.close()
        elif self.state != "serving":
            await self._stop_task()
        elif self._task is not None:
            # Every enqueue starts the worker first, so no worker means
            # an empty queue: there is nothing to drain without one.
            self.queue.put_nowait(_WorkItem("stop"))
            await self._task
        if self.durable:
            # close() is idempotent: a degraded tenant's engine is
            # already closed.
            self.engine.close(checkpoint="checkpoint" in PERMITS[self.state])

    def info(self) -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "tenant": self.name,
            "state": self.state,
            "role": self.role,
            "durable": self.durable,
            "wal_dir": self.wal_dir,
            "queue_depth": self.pending_steps,
            "retry_after": self.retry_after(),
            "demotions": self.demotions,
            "recoveries": self.recoveries,
            "recover_attempts": self.recover_attempts,
            "recovery_exhausted": self.recovery_exhausted,
            "promotions": self.promotions,
            "downtime_seconds": round(self.downtime_seconds, 6),
            "last_error": self.last_error,
            **self.counters.as_dict(),
        }
        if self.follower is not None:
            info["replica_of"] = self.replica_of
            # The replica watermark: every record at or below it is
            # reflected in the engine reads answer from.
            info["wal_seq"] = self.follower.wal_seq
            info["replica"] = self.replica_stamp()
        elif self.durable:
            info["wal_seq"] = (
                self.engine.seq if "wal_seq" in PERMITS[self.state] else None
            )
        return info

    # -- write path ---------------------------------------------------------

    def retry_after(self) -> float:
        """Estimated seconds until the current backlog drains."""
        return round(self.pending_steps * self.ema_step_seconds, 6)

    def _require_writable(self) -> None:
        if self.role == "replica":
            raise NotPrimaryError(
                f"tenant {self.name!r} is a read-only replica of "
                f"{self.replica_of!r}; route writes to the primary (or "
                "promote this replica if the primary is gone)",
                primary_wal_dir=str(self.replica_of or ""),
            )
        if "write" not in PERMITS[self.state]:
            detail = f" ({self.last_error})" if self.last_error else ""
            raise TenantDegradedError(
                f"tenant {self.name!r} is {self.state}{detail}; "
                "writes are rejected until recovery completes",
                # Until the next recovery attempt may land.
                retry_after=round(
                    max(self.next_retry_at - time.monotonic(), 0.05), 6
                ),
                exhausted=self.recovery_exhausted,
            )

    def _admit(self, n_steps: int) -> None:
        if n_steps > self.max_queue_depth:
            # No amount of waiting admits this batch — saying "retry later"
            # would send the client into a futile retry loop.
            self.counters.admissions_rejected += 1
            raise RequestRejectedError(
                "too_large",
                f"batch of {n_steps} steps exceeds max_queue_depth="
                f"{self.max_queue_depth}; split it into smaller batches",
            )
        if self.pending_steps + n_steps > self.max_queue_depth:
            self.counters.admissions_rejected += 1
            raise TenantSaturatedError(
                f"tenant {self.name!r} queue is full "
                f"({self.pending_steps}/{self.max_queue_depth} steps "
                f"pending, {n_steps} offered)",
                retry_after=self.retry_after(),
            )

    async def submit(self, steps: List[Any]) -> List[Any]:
        """Enqueue *steps* and await their StepResults (never blocks on
        a full backlog: :class:`TenantSaturatedError`)."""
        self._require_writable()
        self.start()
        self._admit(len(steps))
        future = asyncio.get_running_loop().create_future()
        self.pending_steps += len(steps)
        self.queue.put_nowait(_WorkItem("feed", list(steps), future))
        return await future

    async def submit_control(self, kind: str) -> Any:
        """Enqueue a control op ("sweep" / "flush_pending") — serialized
        with the write stream, so it lands at a well-defined position."""
        self._require_writable()
        self.start()
        future = asyncio.get_running_loop().create_future()
        self.queue.put_nowait(_WorkItem(kind, [], future))
        return await future

    async def _drain(self) -> None:
        """The worker: FIFO over the queue, cooperative yields.

        A model-level :class:`ReproError` is the engine answering and
        goes to the caller; an *infrastructure* failure demotes the
        tenant — the caller gets a ``degraded`` error saying the write
        was NOT acknowledged, and the worker exits in favor of recovery.
        """
        while True:
            item = await self.queue.get()
            demote_cause: Optional[BaseException] = None
            try:
                if item.kind == "stop":
                    return
                if self._io is not None:
                    # The "server.worker" fault site: a scheduled crash
                    # fires at an item boundary, before any step of this
                    # item is applied.
                    self._io.check("server.worker")
                if item.kind == "sweep":
                    outcome: Any = sorted(self.engine.sweep())
                elif item.kind == "flush_pending":
                    outcome = self.engine.flush_pending()
                else:
                    outcome = await self._feed_steps(item.steps)
            except asyncio.CancelledError:
                if item.waiting:
                    item.future.cancel()
                raise
            except BaseException as exc:
                if _is_infra_failure(exc):
                    demote_cause = exc
                    if item.waiting:
                        item.future.set_exception(
                            TenantDegradedError(
                                f"tenant {self.name!r} worker hit "
                                f"{type(exc).__name__}: {exc}; the write "
                                "was not acknowledged",
                                retry_after=self.recover_backoff,
                            )
                        )
                else:  # delivered to the caller, not lost
                    if item.waiting:
                        item.future.set_exception(exc)
                    if not isinstance(exc, Exception):
                        raise
            else:
                if item.waiting:
                    item.future.set_result(outcome)
            finally:
                self.queue.task_done()
            if demote_cause is not None:
                self._demote(demote_cause)
                return

    async def _feed_steps(self, steps: List[Any]) -> List[Any]:
        results: List[Any] = []
        started = time.perf_counter()
        try:
            for index, step in enumerate(steps):
                results.append(self.engine.feed(step))
                self.counters.steps_served += 1
                if (index + 1) % self.yield_every == 0:
                    await asyncio.sleep(0)
        finally:
            done = len(results)
            self.pending_steps -= len(steps)
            if done:
                per_step = (time.perf_counter() - started) / done
                self.ema_step_seconds = (
                    (1 - _EMA_ALPHA) * self.ema_step_seconds
                    + _EMA_ALPHA * per_step
                )
            self.counters.batches_served += 1
        return results

    def _demote(self, cause: BaseException) -> None:
        """The worker's last act: fail the backlog (none of it was
        acknowledged), close the engine's storage so the WAL lock is
        surrendered, and hand the tenant to the heal loop.  Reads keep
        answering throughout: the wrapped engine's in-memory state is
        intact and consistent at a step boundary."""
        self._transition("fail", cause)
        backlog_error = TenantDegradedError(
            f"tenant {self.name!r} degraded ({self.last_error}); "
            "this queued write was not acknowledged",
            retry_after=self.recover_backoff,
        )
        while not self.queue.empty():
            item = self.queue.get_nowait()
            if item.waiting:
                item.future.set_exception(backlog_error)
            self.queue.task_done()
        self.pending_steps = 0
        self.abandon_storage()
        if self.durable:
            self._spawn(self._heal, "heal")
        else:
            # No WAL, nothing to replay: degraded until an operator acts.
            self._task = None
            self._transition("exhaust")

    async def _heal(self) -> None:
        """A writer's outage: ``recover()`` in the default executor (the
        loop keeps serving reads, this tenant's included, while the WAL
        replays), backing off between failed attempts, until one lands
        or the budget is spent."""
        loop = asyncio.get_running_loop()
        for attempt in range(1, self.recover_max_attempts + 1):
            if self.closed:
                return
            self._transition("attempt")
            future = loop.run_in_executor(
                None, functools.partial(recover, self.wal_dir, io=self._io)
            )
            try:
                engine = await asyncio.shield(future)
            except asyncio.CancelledError:
                # close() cancelled us mid-recovery; the executor thread
                # cannot be stopped — close its engine (and free the WAL
                # lock) whenever it does finish.
                future.add_done_callback(_close_engine_quietly)
                raise
            except Exception as exc:
                self._transition("fail", exc)
                if attempt < self.recover_max_attempts:
                    await self._back_off()
            else:
                if self.closed:
                    engine.close()
                    return
                self._engine = engine
                self._transition("recover")
                self._spawn(self._drain, "tenant")
                return
        self._task = None
        self._transition("exhaust")
        if self._on_exhausted is not None:
            # The budget is spent and the WAL lock surrendered: a replica
            # of this directory can seal the log and take over.
            self._on_exhausted(self)

    # -- replication --------------------------------------------------------

    async def _tail(self) -> None:
        """A replica's poll loop: ingest the primary's WAL continuously.

        Polls run **inline on the event loop** — reads answer from the
        same follower engine, so a threaded replay would race them.  Any
        failure (injected fault, corruption observed mid-truncation,
        storage error, a failed promotion) leaves the follower suspect:
        it is not polled again but, after a backoff, rebuilt —
        construction restores the checkpoint chain, which clears any
        partial-tail confusion.  A rebuild that fails is one more failed
        attempt of the same outage; reads answer from the last follower
        throughout.
        """
        while not self.closed and self.follower is not None:
            try:
                if self.state != "serving":
                    self.follower = self._follower_factory(
                        self.replica_of, io=self._io
                    )
                    self._transition("recover")
                self.follower.poll()
            except Exception as exc:
                self._transition("fail", exc)
                await self._back_off()
            else:
                await asyncio.sleep(self.replica_poll_interval)

    async def promote(self) -> Dict[str, Any]:
        """Flip a replica into a writable primary.

        Idempotent: promoting a primary reports ``already_primary``, so
        a client retrying a failover never errors on its own success.
        While the real primary holds the WAL lock the promotion is
        refused with ``primary_alive``, which is no failure of this
        replica: it resumes tailing as it was.  Anything else is a
        ``fail`` like a bad poll — the tail rebuilds the follower and
        returns to ``serving`` — reported as ``promotion_failed``.
        """
        if self.follower is not None:
            await self._stop_task()
        follower = self.follower  # re-read: a concurrent promote may have won
        if follower is None:
            return {
                "tenant": self.name, "promoted": False, "already_primary": True,
            }
        try:
            # Inline on the loop: promote replays into the same engine
            # concurrent reads answer from, so it must not run in a
            # thread.  The tail is already nearly drained by the poll
            # loop — the sealed catch-up is cheap.
            engine = follower.promote()
        except WalLockedError as exc:
            self.start()
            raise RequestRejectedError(
                "primary_alive",
                f"cannot promote {self.name!r}: {exc}",
            ) from exc
        except (ReproError, OSError) as exc:
            self._transition("fail", exc)
            self.start()
            raise RequestRejectedError(
                "promotion_failed",
                f"promoting {self.name!r} failed: {type(exc).__name__}: {exc}",
            ) from exc
        self.follower = None
        self._engine = engine
        self._transition("promote")
        self.start()
        return {
            "tenant": self.name,
            "promoted": True,
            "wal_seq": engine.seq,
            "wal_dir": self.wal_dir,
        }

    def replica_stamp(self) -> Dict[str, Any]:
        """The freshness stamp replicas attach to every read response."""
        lag = self.follower.lag(probe=True)
        return {
            "lag_seq": lag.lag_seq,
            "lag_seconds": round(lag.lag_seconds, 6),
            "wal_seq": lag.applied_seq,
        }

    def guard_read(self, max_lag: Any) -> Optional[Dict[str, Any]]:
        """Enforce a read's ``max_lag`` bound; returns the freshness stamp
        (``None`` for a primary, where reads are always current).

        The lag is probed **before** the read: a bounded read must refuse
        with ``replica_lagging`` rather than answer from state it knows
        is too old.
        """
        if self.follower is None:
            return None
        stamp = self.replica_stamp()
        if max_lag is not None:
            try:
                bound = int(max_lag)
            except (TypeError, ValueError):
                raise ProtocolError(
                    f"'max_lag' must be an integer, got {max_lag!r}"
                ) from None
            if stamp["lag_seq"] > bound:
                raise ReplicaLaggingError(
                    f"replica {self.name!r} is {stamp['lag_seq']} records "
                    f"behind (max_lag={bound}); retry, relax the bound, or "
                    "read from the primary",
                    lag_seq=stamp["lag_seq"],
                    lag_seconds=stamp["lag_seconds"],
                    max_lag=bound,
                    retry_after=self.replica_poll_interval,
                )
        return stamp
