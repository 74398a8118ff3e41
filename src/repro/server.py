"""Multi-tenant asyncio serving front-end.

Turns the in-process engine library into an online service: a single
asyncio TCP server hosts many *tenants*, each an independent engine built
through :func:`repro.engine.build_engine` (so ``shards=`` and ``wal_dir=``
tenants serve unchanged), speaking a newline-delimited JSON protocol
(:mod:`repro.io` wire codecs — one line is one message both ways).

Concurrency model
-----------------
Everything runs on one event loop; engines are plain synchronous objects
and are **never** shared across loops or threads.

* **Write path.**  Each tenant owns a bounded :class:`asyncio.Queue` and a
  single worker coroutine.  ``feed`` / ``feed_batch`` requests enqueue a
  work item and await its future; the worker drains items in FIFO order,
  feeding steps synchronously and awaiting ``asyncio.sleep(0)`` every
  ``yield_every`` steps so one hot tenant cannot starve the loop (or the
  read path) during a large batch.  Per-tenant order is total — exactly
  the serial step stream the paper's scheduler model assumes.
* **Admission control.**  The queue bound is measured in *steps*, not
  items.  A write that would push a tenant's backlog past
  ``max_queue_depth`` is rejected immediately with a structured
  ``saturated`` error carrying ``retry_after`` — the backlog divided by an
  exponential moving average of the tenant's recent drain rate — instead
  of blocking the connection (a hang is indistinguishable from an outage
  to a remote caller).
* **Read path.**  Audit lookups, subschedule/tombstone queries, and
  metrics are answered inline in the connection handler, *not* through the
  queue.  The worker only mutates an engine between awaits and every
  ``engine.feed`` call leaves the engine in a consistent state, so a read
  scheduled between drain chunks always observes a step boundary — reads
  stay fresh and latency-bounded even while the write queue is saturated.

Durability
----------
A tenant created with ``wal_dir`` (or opened with the ``open`` op) runs a
:class:`~repro.durability.DurableEngine` via
:func:`~repro.durability.open_durable`: opening an existing directory
recovers the logged history before serving, and ``close`` checkpoints
before releasing the tenant.

Self-healing
------------
Tenant workers are *supervised*.  A model-level error (a rejected step,
an unsafe sweep) is the engine speaking and is delivered to the caller;
an **infrastructure** failure — a storage ``OSError``, a
:class:`~repro.errors.DurabilityError`, any unexpected exception —
demotes the tenant to a read-only ``degraded`` state instead of killing
it: queued writes fail with a structured ``degraded`` error (the write
was *not* acknowledged), while audit/query/metrics keep answering from
the last consistent state.  Durable tenants then heal themselves: a
recovery task replays the WAL in an executor thread (reads stay live),
retrying with exponential backoff and jitter under a bounded attempt
budget (``serving → degraded → recovering → serving``); once the budget
is spent the tenant stays degraded with ``exhausted`` flagged for the
operator.  Non-durable tenants have no log to heal from and degrade
permanently.

Read replicas & failover
------------------------
A tenant created with ``replica_of`` hosts **no writer**: it wraps a
:class:`~repro.replication.WalFollower` tailing another engine's
``wal_dir`` (typically a primary hosted by another server process) and
answers audit/query/metrics reads from the continuously-replayed
follower engine.  Every read response carries a ``replica`` stamp
(``lag_seq`` / ``lag_seconds`` / ``wal_seq``), reads may pass
``max_lag`` to get a structured ``replica_lagging`` refusal instead of a
stale answer, and every write is refused with a structured
``not_primary`` redirect naming the primary's ``wal_dir``.  The
``promote`` op seals the tail and flips the replica into a writable
primary (refused with ``primary_alive`` while the real primary still
holds the WAL lock); when a *primary* tenant exhausts its recovery
budget, the supervisor automatically promotes its most caught-up
replica (``auto_promote``), so acknowledged writes keep a home without
operator action.

Chaos drills: construct the server with a
:class:`~repro.faults.FaultPlan` (``repro serve --fault-plan``) and the
scheduled storage faults, worker crashes, connection drops, and
follower-tail faults fire deterministically — the chaos equivalence
suite drives exactly this path.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import registry as _registry
from repro.durability import DurableEngine, open_durable, recover
from repro.engine import build_engine
from repro.errors import (
    DurabilityError,
    ModelError,
    NotPrimaryError,
    ProtocolError,
    ReplicaLaggingError,
    ReproError,
    RequestRejectedError,
    ServingError,
    TenantDegradedError,
    TenantSaturatedError,
    UnknownTenantError,
    WalLockedError,
)
from repro.faults import FaultPlan, FaultyIO, InjectedFault
from repro.replication import WalFollower
from repro.io import (
    WIRE_FORMAT,
    schedule_to_list,
    step_from_dict,
    step_result_to_dict,
    wire_message_from_line,
    wire_message_to_line,
)

__all__ = ["ReproServer", "TenantCounters", "serve"]

#: Bytes allowed in one wire line (bounds a feed_batch message; asyncio's
#: default 64 KiB readline limit is far too small for real batches).
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Seed for a tenant's per-step drain-time EMA before any batch has been
#: measured — pessimistic enough that early retry hints are not zero.
_EMA_SEED_SECONDS = 50e-6
_EMA_ALPHA = 0.2


def _close_engine_quietly(future) -> None:
    """Done-callback for an abandoned in-executor ``recover()``.

    A cancelled ``_heal`` cannot stop the executor thread mid-recovery;
    if that thread later *succeeds*, the engine it built holds the WAL
    lock with no owner.  This callback closes it so the lock frees."""
    if future.cancelled() or future.exception() is not None:
        return
    try:
        future.result().close()
    except Exception:
        pass


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


class _Tenant:
    """One hosted engine: queue, worker task, counters, drain-rate EMA,
    and the supervision state machine
    (``serving → degraded → recovering → serving``)."""

    def __init__(
        self,
        name: str,
        engine,
        *,
        wal_dir: Optional[str],
        follower: Optional[WalFollower] = None,
        replica_of: Optional[str] = None,
    ) -> None:
        self.name = name
        self._engine = engine
        self.wal_dir = wal_dir
        # -- replication ------------------------------------------------
        self.follower = follower
        self.replica_of = replica_of
        self.role = "replica" if follower is not None else "primary"
        self.tail_task: Optional[asyncio.Task] = None
        self.promotions = 0
        self.queue: asyncio.Queue = asyncio.Queue()
        self.pending_steps = 0
        self.counters = TenantCounters()
        self.ema_step_seconds = _EMA_SEED_SECONDS
        self.worker: Optional[asyncio.Task] = None
        self.closed = False
        # -- supervision state ------------------------------------------
        self.state = "serving"  # serving | degraded | recovering
        self.last_error: Optional[str] = None
        self.demotions = 0
        self.recoveries = 0
        self.recover_attempts = 0
        self.recovery_exhausted = False
        self.recovery_task: Optional[asyncio.Task] = None
        self.demoted_at: Optional[float] = None
        self.downtime_seconds = 0.0
        self.next_retry_at = 0.0

    @property
    def engine(self):
        """The tenant's live engine — the follower's replayed engine for
        replicas, the writable (durable or in-memory) engine otherwise."""
        if self.follower is not None:
            return self.follower.engine
        return self._engine

    @engine.setter
    def engine(self, engine) -> None:
        self._engine = engine

    @property
    def durable(self) -> bool:
        return isinstance(self.engine, DurableEngine)

    def retry_after(self) -> float:
        """Estimated seconds until the current backlog drains."""
        return round(self.pending_steps * self.ema_step_seconds, 6)

    def degraded_retry_after(self) -> float:
        """Seconds until the next recovery attempt may land."""
        return round(max(self.next_retry_at - time.monotonic(), 0.05), 6)


class ReproServer:
    """The multi-tenant asyncio TCP server.

    >>> server = ReproServer(max_queue_depth=1024)
    >>> server.create_tenant("acme", scheduler="conflict-graph",
    ...                      policy="eager-c1")          # doctest: +SKIP
    >>> host, port = await server.start()                # doctest: +SKIP
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_queue_depth: int = 4096,
        yield_every: int = 64,
        fault_plan: Optional[FaultPlan] = None,
        recover_max_attempts: int = 6,
        recover_backoff: float = 0.05,
        recover_backoff_cap: float = 2.0,
        replica_poll_interval: float = 0.02,
        auto_promote: bool = True,
    ) -> None:
        if max_queue_depth < 1:
            raise ServingError("max_queue_depth must be >= 1")
        if yield_every < 1:
            raise ServingError("yield_every must be >= 1")
        if recover_max_attempts < 1:
            raise ServingError("recover_max_attempts must be >= 1")
        if recover_backoff <= 0 or recover_backoff_cap < recover_backoff:
            raise ServingError(
                "recover_backoff must be > 0 and <= recover_backoff_cap"
            )
        if replica_poll_interval <= 0:
            raise ServingError("replica_poll_interval must be > 0")
        self.host = host
        self.port = port
        self.max_queue_depth = max_queue_depth
        self.yield_every = yield_every
        self.fault_plan = fault_plan
        self.recover_max_attempts = recover_max_attempts
        self.recover_backoff = recover_backoff
        self.recover_backoff_cap = recover_backoff_cap
        self.replica_poll_interval = replica_poll_interval
        self.auto_promote = auto_promote
        #: One shared shim: the plan's occurrence counters must see every
        #: storage call of every tenant, in order.
        self._io = FaultyIO(fault_plan) if fault_plan is not None else None
        #: Deterministic jitter source (seeded so drills replay exactly).
        self._rng = random.Random(0xC0FFEE)
        self._tenants: Dict[str, _Tenant] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections = 0

    # -- tenant lifecycle ---------------------------------------------------

    def create_tenant(
        self,
        name: str,
        *,
        wal_dir: Optional[str] = None,
        replica_of: Optional[str] = None,
        shards: int = 1,
        checkpoint_interval: Optional[int] = None,
        sync: Optional[str] = None,
        **config: Any,
    ):
        """Create (or, for an existing ``wal_dir``, recover) a tenant.

        Engine construction goes through :func:`build_engine` /
        :func:`open_durable`, so every engine flavor — monolithic,
        sharded, durable — serves identically.  ``replica_of`` instead
        hosts a read-only :class:`~repro.replication.WalFollower` of
        another engine's ``wal_dir`` (which must already hold a
        manifest); it is mutually exclusive with every engine-shaping
        argument — a replica's configuration *is* the primary's.
        """
        if not name or not isinstance(name, str):
            raise ServingError(f"tenant name must be a non-empty string, got {name!r}")
        if name in self._tenants:
            raise ServingError(f"tenant {name!r} already exists")
        if replica_of is not None:
            if wal_dir is not None or shards != 1 or config \
                    or checkpoint_interval is not None or sync is not None:
                raise ServingError(
                    "replica_of is mutually exclusive with wal_dir/shards/"
                    "checkpoint_interval/sync/engine config: a replica "
                    "inherits everything from the primary's manifest"
                )
            follower = WalFollower(replica_of, io=self._io)
            tenant = _Tenant(
                name, None, wal_dir=replica_of,
                follower=follower, replica_of=replica_of,
            )
            self._tenants[name] = tenant
            try:
                self._ensure_tail(tenant)
            except BaseException:
                self._tenants.pop(name, None)
                follower.close()
                raise
            return tenant
        if wal_dir is not None:
            engine = open_durable(
                wal_dir,
                shards=shards,
                checkpoint_interval=checkpoint_interval,
                sync=sync,
                io=self._io,
                **config,
            )
        else:
            engine = build_engine(
                shards=shards,
                checkpoint_interval=checkpoint_interval,
                sync=sync,
                **config,
            )
        # The engine exists before the name is registered, and a failure
        # after registration deregisters — a half-open tenant must never
        # occupy a name that can neither be used nor re-created.
        tenant = _Tenant(name, engine, wal_dir=wal_dir)
        self._tenants[name] = tenant
        try:
            self._ensure_worker(tenant)
        except BaseException:
            self._tenants.pop(name, None)
            if tenant.durable:
                try:
                    engine.close()
                except Exception:
                    pass
            raise
        return tenant

    def _ensure_worker(self, tenant: _Tenant) -> None:
        """Start the tenant's worker task (lazily when no loop is running
        yet — tenants may be created before ``asyncio.run``)."""
        if tenant.worker is not None:
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # started later, from start()/submit() inside the loop
        tenant.worker = loop.create_task(
            self._drain(tenant), name=f"repro-tenant-{tenant.name}"
        )

    def _ensure_runner(self, tenant: _Tenant) -> None:
        """Start whichever background task the tenant's role needs."""
        if tenant.follower is not None:
            self._ensure_tail(tenant)
        else:
            self._ensure_worker(tenant)

    def _ensure_tail(self, tenant: _Tenant) -> None:
        """Start the replica's tail task (lazily, like `_ensure_worker`)."""
        if tenant.tail_task is not None:
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # started later, from start() inside the loop
        tenant.tail_task = loop.create_task(
            self._tail(tenant), name=f"repro-tail-{tenant.name}"
        )

    async def _tail(self, tenant: _Tenant) -> None:
        """The replica's poll loop: ingest the primary's WAL continuously.

        Polls run **inline on the event loop** — reads answer from the
        same follower engine, so moving the replay to an executor thread
        would race them.  A poll failure (injected fault, corruption
        observed mid-truncation, storage error) degrades the tenant and
        rebuilds the follower from the chain after a capped backoff;
        reads keep answering from the last consistent state throughout.
        """
        delay = self.recover_backoff
        while not tenant.closed and tenant.follower is not None:
            try:
                tenant.follower.poll()
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                tenant.state = "degraded"
                tenant.demotions += 1
                tenant.demoted_at = time.monotonic()
                tenant.last_error = f"{type(exc).__name__}: {exc}"
                pause = min(delay, self.recover_backoff_cap)
                pause *= 0.5 + self._rng.random()
                tenant.next_retry_at = time.monotonic() + pause
                delay *= 2
                await asyncio.sleep(pause)
                if tenant.closed or tenant.follower is None:
                    return
                try:
                    # Re-adopt from scratch: construction restores the
                    # checkpoint chain, which clears any partial-tail
                    # confusion the failure left behind.
                    tenant.follower = WalFollower(
                        tenant.replica_of, io=self._io
                    )
                except Exception as rebuild_exc:
                    tenant.last_error = (
                        f"{type(rebuild_exc).__name__}: {rebuild_exc}"
                    )
                    continue
                tenant.state = "serving"
                tenant.recoveries += 1
                if tenant.demoted_at is not None:
                    tenant.downtime_seconds += (
                        time.monotonic() - tenant.demoted_at
                    )
                    tenant.demoted_at = None
                delay = self.recover_backoff
                continue
            await asyncio.sleep(self.replica_poll_interval)

    async def promote_tenant(self, name: str) -> Dict[str, Any]:
        """Flip a replica tenant into a writable primary.

        Idempotent: promoting a tenant that is already a primary reports
        ``already_primary`` instead of failing, so a client retrying a
        failover never errors on its own success.  While the real
        primary still holds the WAL lock the promotion is refused with a
        structured ``primary_alive`` error and the replica resumes
        tailing; any other failure resumes tailing too and reports
        ``promotion_failed``.
        """
        tenant = self._get(name)
        if tenant.follower is None:
            return {
                "tenant": name, "promoted": False, "already_primary": True,
            }
        task = tenant.tail_task
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            tenant.tail_task = None
        follower = tenant.follower
        try:
            # Inline on the loop: promote replays into the same engine
            # concurrent reads answer from, so it must not run in a
            # thread.  The tail is already nearly drained by the poll
            # loop — the sealed catch-up is cheap.
            engine = follower.promote()
        except WalLockedError as exc:
            self._ensure_tail(tenant)
            raise RequestRejectedError(
                "primary_alive",
                f"cannot promote {name!r}: {exc}",
            ) from exc
        except (ReproError, OSError) as exc:
            tenant.state = "degraded"
            tenant.last_error = f"{type(exc).__name__}: {exc}"
            if not follower.closed:
                self._ensure_tail(tenant)
            raise RequestRejectedError(
                "promotion_failed",
                f"promoting {name!r} failed: {type(exc).__name__}: {exc}",
            ) from exc
        tenant.follower = None
        tenant.engine = engine
        tenant.role = "primary"
        tenant.promotions += 1
        tenant.state = "serving"
        tenant.recovery_exhausted = False
        self._ensure_worker(tenant)
        return {
            "tenant": name,
            "promoted": True,
            "wal_seq": engine.seq,
            "wal_dir": tenant.wal_dir,
        }

    def _spawn_auto_promote(self, failed: _Tenant) -> None:
        """Schedule promotion of *failed*'s most caught-up replica.

        Called when a durable primary exhausts its recovery budget: its
        engine is closed and the WAL lock surrendered, so a replica of
        the same directory can seal the log and take over.  The most
        advanced watermark wins (it loses the least).
        """
        import os.path

        if not self.auto_promote or failed.wal_dir is None:
            return
        failed_dir = os.path.abspath(str(failed.wal_dir))
        target: Optional[_Tenant] = None
        for tenant in self._tenants.values():
            if (
                tenant.follower is not None
                and not tenant.closed
                and tenant.replica_of is not None
                and os.path.abspath(str(tenant.replica_of)) == failed_dir
            ):
                if (
                    target is None
                    or tenant.follower.wal_seq > target.follower.wal_seq
                ):
                    target = tenant
        if target is None:
            return
        name = target.name
        asyncio.get_running_loop().create_task(
            self._auto_promote(name), name=f"repro-promote-{name}"
        )

    async def _auto_promote(self, name: str) -> None:
        try:
            await self.promote_tenant(name)
        except ReproError:
            # promote_tenant already restarted tailing and recorded the
            # cause on the tenant; the operator sees it in tenant_info.
            pass

    def open_tenant(self, name: str, wal_dir: str):
        """Open *name* from an existing WAL directory (lazy recovery)."""
        if name in self._tenants:
            raise ServingError(f"tenant {name!r} already exists")
        return self.create_tenant(name, wal_dir=wal_dir)

    async def close_tenant(self, name: str) -> None:
        """Drain the tenant's queue, checkpoint if durable, release it.

        The name leaves the registry even when the final checkpoint (or
        the drain) raises — a failed close must not leave a tenant that
        can neither be used nor re-created.
        """
        tenant = self._get(name)
        tenant.closed = True
        try:
            for attr in ("recovery_task", "tail_task"):
                task = getattr(tenant, attr)
                if task is not None:
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
                    setattr(tenant, attr, None)
            if tenant.follower is not None:
                tenant.follower.close()
            elif tenant.state == "serving":
                self._ensure_worker(tenant)
                if tenant.worker is not None:
                    tenant.queue.put_nowait(_WorkItem("stop"))
                    await tenant.worker
            if tenant.durable:
                # A degraded tenant's engine is already closed (and a
                # poisoned WAL must not be checkpointed) — close() is
                # idempotent either way.
                tenant.engine.close(checkpoint=tenant.state == "serving")
        finally:
            self._tenants.pop(name, None)

    def tenants(self) -> List[Dict[str, Any]]:
        return [self._tenant_info(t) for t in self._tenants.values()]

    def _get(self, name: Any) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None or tenant.closed:
            raise UnknownTenantError(name)
        return tenant

    def _tenant_info(self, tenant: _Tenant) -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "tenant": tenant.name,
            "state": tenant.state,
            "role": tenant.role,
            "durable": tenant.durable,
            "wal_dir": tenant.wal_dir,
            "queue_depth": tenant.pending_steps,
            "retry_after": tenant.retry_after(),
            "demotions": tenant.demotions,
            "recoveries": tenant.recoveries,
            "recover_attempts": tenant.recover_attempts,
            "recovery_exhausted": tenant.recovery_exhausted,
            "promotions": tenant.promotions,
            "downtime_seconds": round(tenant.downtime_seconds, 6),
            "last_error": tenant.last_error,
            **tenant.counters.as_dict(),
        }
        if tenant.follower is not None:
            info["replica_of"] = tenant.replica_of
            # The replica watermark: every record at or below it is
            # reflected in the engine reads answer from.
            info["wal_seq"] = tenant.follower.wal_seq
            info["replica"] = self._replica_stamp(tenant)
        elif tenant.durable:
            # The durable sequence number is ground truth for "what was
            # acknowledged" — but only once recovery has settled; while
            # degraded the in-memory seq may run ahead of the log.
            info["wal_seq"] = (
                tenant.engine.seq if tenant.state == "serving" else None
            )
        return info

    # -- write path ---------------------------------------------------------

    def _require_writable(self, tenant: _Tenant) -> None:
        if tenant.role == "replica":
            raise NotPrimaryError(
                f"tenant {tenant.name!r} is a read-only replica of "
                f"{tenant.replica_of!r}; route writes to the primary (or "
                "promote this replica if the primary is gone)",
                primary_wal_dir=str(tenant.replica_of or ""),
            )
        if tenant.state != "serving":
            detail = f" ({tenant.last_error})" if tenant.last_error else ""
            raise TenantDegradedError(
                f"tenant {tenant.name!r} is {tenant.state}{detail}; "
                "writes are rejected until recovery completes",
                retry_after=tenant.degraded_retry_after(),
                exhausted=tenant.recovery_exhausted,
            )

    def _admit(self, tenant: _Tenant, n_steps: int) -> None:
        if n_steps > self.max_queue_depth:
            # No amount of waiting admits this batch — saying "retry later"
            # would send the client into a futile retry loop.
            tenant.counters.admissions_rejected += 1
            raise RequestRejectedError(
                "too_large",
                f"batch of {n_steps} steps exceeds max_queue_depth="
                f"{self.max_queue_depth}; split it into smaller batches",
            )
        if tenant.pending_steps + n_steps > self.max_queue_depth:
            tenant.counters.admissions_rejected += 1
            raise TenantSaturatedError(
                f"tenant {tenant.name!r} queue is full "
                f"({tenant.pending_steps}/{self.max_queue_depth} steps "
                f"pending, {n_steps} offered)",
                retry_after=tenant.retry_after(),
            )

    async def submit(self, name: str, steps: List[Any]) -> List[Any]:
        """Enqueue *steps* for *name* and await their StepResults.

        Raises :class:`TenantSaturatedError` instead of blocking when the
        tenant's backlog would exceed ``max_queue_depth``.
        """
        tenant = self._get(name)
        self._require_writable(tenant)
        self._ensure_worker(tenant)
        self._admit(tenant, len(steps))
        future = asyncio.get_running_loop().create_future()
        tenant.pending_steps += len(steps)
        tenant.queue.put_nowait(_WorkItem("feed", list(steps), future))
        return await future

    async def submit_control(self, name: str, kind: str) -> Any:
        """Enqueue a control op ("sweep" / "flush_pending") — serialized
        with the write stream, so it lands at a well-defined position."""
        tenant = self._get(name)
        self._require_writable(tenant)
        self._ensure_worker(tenant)
        future = asyncio.get_running_loop().create_future()
        tenant.queue.put_nowait(_WorkItem(kind, [], future))
        return await future

    async def _drain(self, tenant: _Tenant) -> None:
        """The per-tenant worker: FIFO over the queue, cooperative yields.

        Supervised: a model-level :class:`ReproError` is the engine
        answering and goes to the caller; an *infrastructure* failure
        (storage fault, unexpected exception) demotes the tenant —
        the caller gets a ``degraded`` error saying the write was NOT
        acknowledged, and the worker exits in favor of recovery.
        """
        while True:
            item = await tenant.queue.get()
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
                    outcome: Any = sorted(tenant.engine.sweep())
                elif item.kind == "flush_pending":
                    outcome = tenant.engine.flush_pending()
                else:
                    outcome = await self._feed_steps(tenant, item.steps)
            except asyncio.CancelledError:
                if item.future is not None and not item.future.done():
                    item.future.cancel()
                raise
            except BaseException as exc:
                if self._is_infra_failure(exc):
                    demote_cause = exc
                    if item.future is not None and not item.future.done():
                        item.future.set_exception(
                            TenantDegradedError(
                                f"tenant {tenant.name!r} worker hit "
                                f"{type(exc).__name__}: {exc}; the write "
                                "was not acknowledged",
                                retry_after=self.recover_backoff,
                            )
                        )
                else:  # delivered to the caller, not lost
                    if item.future is not None and not item.future.done():
                        item.future.set_exception(exc)
                    if not isinstance(exc, Exception):
                        raise
            else:
                if item.future is not None and not item.future.done():
                    item.future.set_result(outcome)
            finally:
                tenant.queue.task_done()
            if demote_cause is not None:
                self._demote(tenant, demote_cause)
                return

    @staticmethod
    def _is_infra_failure(exc: BaseException) -> bool:
        """Storage faults, durability misuse, injected crashes, and any
        exception outside the library's own hierarchy demote the tenant;
        the rest (rejected steps, unsafe sweeps …) are model answers."""
        if isinstance(exc, (DurabilityError, InjectedFault)):
            return True
        return not isinstance(exc, ReproError)

    def _demote(self, tenant: _Tenant, cause: BaseException) -> None:
        """Enter ``degraded``: fail the backlog (none of it was
        acknowledged), close the engine's storage so the WAL lock is
        surrendered, and — for durable tenants — start the healing task.
        Reads keep answering throughout: the wrapped engine's in-memory
        state is intact and consistent at a step boundary."""
        tenant.state = "degraded"
        tenant.demotions += 1
        tenant.demoted_at = time.monotonic()
        tenant.last_error = f"{type(cause).__name__}: {cause}"
        tenant.worker = None
        backlog_error = TenantDegradedError(
            f"tenant {tenant.name!r} degraded ({tenant.last_error}); "
            "this queued write was not acknowledged",
            retry_after=self.recover_backoff,
        )
        while not tenant.queue.empty():
            item = tenant.queue.get_nowait()
            if item.future is not None and not item.future.done():
                item.future.set_exception(backlog_error)
            tenant.queue.task_done()
        tenant.pending_steps = 0
        if tenant.durable:
            try:
                tenant.engine.close()
            except Exception:
                pass  # the storage below may still be failing
            tenant.recovery_task = asyncio.get_running_loop().create_task(
                self._heal(tenant), name=f"repro-heal-{tenant.name}"
            )
        else:
            # No WAL, nothing to replay: degraded until an operator acts.
            tenant.recovery_exhausted = True

    async def _heal(self, tenant: _Tenant) -> None:
        """Crash-loop recovery with exponential backoff and a bounded
        attempt budget.  ``recover()`` runs in the default executor so
        the event loop keeps serving reads (this tenant's included —
        they answer from the pre-crash in-memory state) while the WAL
        replays."""
        loop = asyncio.get_running_loop()
        delay = self.recover_backoff
        attempts = 0
        while not tenant.closed:
            attempts += 1
            tenant.recover_attempts += 1
            tenant.state = "recovering"
            future = loop.run_in_executor(
                None,
                functools.partial(recover, tenant.wal_dir, io=self._io),
            )
            try:
                engine = await asyncio.shield(future)
            except asyncio.CancelledError:
                # close_tenant cancelled us mid-recovery; the executor
                # thread cannot be stopped — close its engine (and free
                # the WAL lock) whenever it does finish.
                future.add_done_callback(_close_engine_quietly)
                raise
            except Exception as exc:
                tenant.state = "degraded"
                tenant.last_error = f"{type(exc).__name__}: {exc}"
                if attempts >= self.recover_max_attempts:
                    tenant.recovery_exhausted = True
                    tenant.recovery_task = None
                    # The budget is spent and the WAL lock surrendered:
                    # if a replica of this directory is hosted here, it
                    # can seal the log and take over the write role.
                    self._spawn_auto_promote(tenant)
                    return
                pause = min(delay, self.recover_backoff_cap)
                pause *= 0.5 + self._rng.random()  # jitter in [0.5, 1.5)
                tenant.next_retry_at = time.monotonic() + pause
                delay *= 2
                await asyncio.sleep(pause)
            else:
                if tenant.closed:
                    engine.close()
                    return
                tenant.engine = engine
                tenant.state = "serving"
                tenant.recoveries += 1
                if tenant.demoted_at is not None:
                    tenant.downtime_seconds += (
                        time.monotonic() - tenant.demoted_at
                    )
                    tenant.demoted_at = None
                tenant.recovery_task = None
                self._ensure_worker(tenant)
                return

    async def _feed_steps(self, tenant: _Tenant, steps: List[Any]) -> List[Any]:
        results: List[Any] = []
        started = time.perf_counter()
        try:
            for index, step in enumerate(steps):
                results.append(tenant.engine.feed(step))
                tenant.counters.steps_served += 1
                if (index + 1) % self.yield_every == 0:
                    await asyncio.sleep(0)
        finally:
            done = len(results)
            tenant.pending_steps -= len(steps)
            if done:
                per_step = (time.perf_counter() - started) / done
                tenant.ema_step_seconds = (
                    (1 - _EMA_ALPHA) * tenant.ema_step_seconds
                    + _EMA_ALPHA * per_step
                )
            tenant.counters.batches_served += 1
        return results

    # -- read path ----------------------------------------------------------

    def _replica_stamp(self, tenant: _Tenant) -> Dict[str, Any]:
        """The freshness stamp replicas attach to every read response."""
        lag = tenant.follower.lag(probe=True)
        return {
            "lag_seq": lag.lag_seq,
            "lag_seconds": round(lag.lag_seconds, 6),
            "wal_seq": lag.applied_seq,
        }

    def _guard_replica_read(
        self, tenant: _Tenant, max_lag: Any
    ) -> Optional[Dict[str, Any]]:
        """Enforce a read's ``max_lag`` bound; returns the freshness stamp
        (``None`` for non-replica tenants, where reads are always current).

        The lag is probed **before** the read: a bounded read must refuse
        with ``replica_lagging`` rather than answer from state it knows
        is too old.
        """
        if tenant.follower is None:
            return None
        stamp = self._replica_stamp(tenant)
        if max_lag is not None:
            try:
                bound = int(max_lag)
            except (TypeError, ValueError):
                raise ProtocolError(
                    f"'max_lag' must be an integer, got {max_lag!r}"
                ) from None
            if stamp["lag_seq"] > bound:
                raise ReplicaLaggingError(
                    f"replica {tenant.name!r} is {stamp['lag_seq']} records "
                    f"behind (max_lag={bound}); retry, relax the bound, or "
                    "read from the primary",
                    lag_seq=stamp["lag_seq"],
                    lag_seconds=stamp["lag_seconds"],
                    max_lag=bound,
                    retry_after=self.replica_poll_interval,
                )
        return stamp

    def audit(self, name: str, txn: Any) -> Dict[str, Any]:
        tenant = self._get(name)
        tenant.counters.audits_served += 1
        return tenant.engine.audit(txn).as_dict()

    def query(self, name: str, what: str) -> Any:
        tenant = self._get(name)
        tenant.counters.reads_served += 1
        engine = tenant.engine
        if what == "accepted":
            return schedule_to_list(engine.accepted_subschedule())
        if what == "live":
            return sorted(engine.live_transactions())
        if what == "deleted":
            return sorted(engine.deleted_transactions())
        if what == "aborted":
            return sorted(engine.aborted)
        if what == "stats":
            return dataclasses.asdict(engine.stats)
        raise ProtocolError(
            f"unknown query {what!r}; known: accepted, live, deleted, "
            "aborted, stats"
        )

    def metrics(self) -> Dict[str, Any]:
        """The ``/metrics`` surface: server gauges + per-tenant counters
        + each engine's :class:`~repro.engine.GcStats` totals.

        Degraded tenants stay on the board: their engine section reads
        from the last consistent in-memory state (or ``None`` if even
        that is unreachable) — an outage must not blind the operator."""
        tenants: Dict[str, Any] = {}
        for tenant in self._tenants.values():
            try:
                stats = tenant.engine.stats
                engine_section: Optional[Dict[str, Any]] = {
                    "steps_fed": stats.steps_fed,
                    "deletions": stats.deletions,
                    "policy_invocations": stats.policy_invocations,
                    "peak_graph_size": stats.peak_graph_size,
                    "peak_retained_completed": stats.peak_retained_completed,
                    "live": len(tenant.engine.live_transactions()),
                    "deleted": len(tenant.engine.deleted_transactions()),
                }
                sweeps_run = tenant.engine.sweeps_run
            except Exception:
                engine_section = None
                sweeps_run = None
            tenants[tenant.name] = {
                **self._tenant_info(tenant),
                "sweeps_run": sweeps_run,
                "engine": engine_section,
            }
        return {
            "format": WIRE_FORMAT,
            "suite": "serving_metrics",
            "server": {
                "tenants": len(self._tenants),
                "connections": self._connections,
                "max_queue_depth": self.max_queue_depth,
                "yield_every": self.yield_every,
            },
            "tenants": tenants,
        }

    # -- wire ---------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        for tenant in self._tenants.values():
            self._ensure_runner(tenant)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_LINE_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drain workers, checkpoint durable tenants."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for name in list(self._tenants):
            await self.close_tenant(name)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer,
                        _error_payload(
                            None, "bad_request",
                            f"wire line exceeds {MAX_LINE_BYTES} bytes",
                        ),
                    )
                    break
                if not line:
                    break
                if self._io is not None:
                    # The "server.connection" fault site: a scheduled
                    # drop kills the transport before dispatch, so the
                    # request is never applied (the client sees a dead
                    # socket, exactly like a mid-flight network cut).
                    try:
                        self._io.check("server.connection")
                    except (InjectedFault, OSError):
                        writer.transport.abort()
                        return
                response = await self._dispatch_line(line)
                await self._send(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # An aborted transport (injected connection drop) can
                # surface the close-waiter's cancellation here; the
                # socket is already dead, so there is nothing to await.
                pass

    async def _send(self, writer: asyncio.StreamWriter, payload: Dict) -> None:
        writer.write(wire_message_to_line(payload).encode("utf-8") + b"\n")
        await writer.drain()

    async def _dispatch_line(self, line: bytes) -> Dict[str, Any]:
        request_id = None
        try:
            request = wire_message_from_line(line.decode("utf-8"))
            request_id = request.get("id")
            return await self._dispatch(request)
        except TenantSaturatedError as exc:
            payload = _error_payload(request_id, exc.code, exc.message)
            payload["error"]["retry_after"] = exc.retry_after
            return payload
        except TenantDegradedError as exc:
            payload = _error_payload(request_id, exc.code, exc.message)
            payload["error"]["retry_after"] = exc.retry_after
            payload["error"]["exhausted"] = exc.exhausted
            return payload
        except NotPrimaryError as exc:
            payload = _error_payload(request_id, exc.code, exc.message)
            payload["error"]["primary_wal_dir"] = exc.primary_wal_dir
            return payload
        except ReplicaLaggingError as exc:
            payload = _error_payload(request_id, exc.code, exc.message)
            payload["error"]["lag_seq"] = exc.lag_seq
            payload["error"]["lag_seconds"] = exc.lag_seconds
            payload["error"]["max_lag"] = exc.max_lag
            payload["error"]["retry_after"] = exc.retry_after
            return payload
        except RequestRejectedError as exc:
            return _error_payload(request_id, exc.code, exc.message)
        except UnknownTenantError as exc:
            payload = _error_payload(request_id, "unknown_tenant", str(exc))
            payload["error"]["tenant"] = exc.tenant
            return payload
        except (ModelError, ProtocolError, KeyError, TypeError) as exc:
            # Malformed wire traffic: undecodable lines, bad step dicts,
            # missing fields.  Structured response, connection survives.
            return _error_payload(request_id, "bad_request", _exc_message(exc))
        except ReproError as exc:
            return _error_payload(
                request_id, getattr(exc, "code", type(exc).__name__), str(exc)
            )
        except Exception as exc:  # noqa: BLE001 — never drop the connection
            return _error_payload(
                request_id, "internal", f"{type(exc).__name__}: {exc}"
            )

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if not isinstance(op, str):
            raise ProtocolError("wire message carries no 'op' string")
        handler = getattr(self, f"_op_{op.replace('-', '_')}", None)
        if handler is None:
            raise ProtocolError(f"unknown op {op!r}")
        payload = await handler(request)
        payload.setdefault("ok", True)
        if request.get("id") is not None:
            payload["id"] = request["id"]
        return payload

    # -- op handlers (one per protocol verb) --------------------------------

    async def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"server": "repro", "tenants": len(self._tenants)}

    async def _op_catalog(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"catalog": _registry.catalog()}

    async def _op_create(self, request: Dict[str, Any]) -> Dict[str, Any]:
        config = request.get("config", {})
        if not isinstance(config, dict):
            raise ProtocolError("'config' must be an object of engine kwargs")
        shards = request.get("shards", 1)
        # bool is an int subclass: "shards": true is not a shard count.
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise ProtocolError(
                f"'shards' must be an integer >= 1, got {shards!r}"
            )
        tenant = self.create_tenant(
            _require_tenant(request),
            wal_dir=request.get("wal_dir"),
            replica_of=request.get("replica_of"),
            shards=shards,
            checkpoint_interval=request.get("checkpoint_interval"),
            sync=request.get("sync"),
            **config,
        )
        return {
            "tenant": tenant.name,
            "durable": tenant.durable,
            "role": tenant.role,
        }

    async def _op_open(self, request: Dict[str, Any]) -> Dict[str, Any]:
        wal_dir = request.get("wal_dir")
        if not isinstance(wal_dir, str) or not wal_dir:
            raise ProtocolError("'open' requires a 'wal_dir' string")
        tenant = self.open_tenant(_require_tenant(request), wal_dir)
        info = tenant.engine.recovery_info
        return {
            "tenant": tenant.name,
            "recovered_steps": 0 if info is None else info.replayed_steps,
        }

    async def _op_close(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = _require_tenant(request)
        self._get(name)  # raise before enqueueing the stop
        await self.close_tenant(name)
        return {"tenant": name, "closed": True}

    async def _op_tenants(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"tenants": self.tenants()}

    async def _op_tenant(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"info": self._tenant_info(self._get(_require_tenant(request)))}

    async def _op_feed(self, request: Dict[str, Any]) -> Dict[str, Any]:
        step = step_from_dict(_require(request, "step"))
        results = await self.submit(_require_tenant(request), [step])
        return {"result": step_result_to_dict(results[0])}

    async def _op_feed_batch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        raw = _require(request, "steps")
        if not isinstance(raw, list):
            raise ProtocolError("'steps' must be a list of step objects")
        steps = [step_from_dict(item) for item in raw]
        results = await self.submit(_require_tenant(request), steps)
        counts: Dict[str, int] = {}
        for result in results:
            key = result.decision.value
            counts[key] = counts.get(key, 0) + 1
        payload: Dict[str, Any] = {
            "count": len(results),
            "accepted": counts.get("accepted", 0),
            "rejected": counts.get("rejected", 0),
            "delayed": counts.get("delayed", 0),
            "ignored": counts.get("ignored", 0),
            "aborted": sorted({t for r in results for t in r.aborted}),
            "committed": sorted({t for r in results for t in r.committed}),
        }
        if request.get("results"):
            payload["results"] = [step_result_to_dict(r) for r in results]
        return payload

    async def _op_sweep(self, request: Dict[str, Any]) -> Dict[str, Any]:
        deleted = await self.submit_control(_require_tenant(request), "sweep")
        return {"deleted": deleted}

    async def _op_flush_pending(self, request: Dict[str, Any]) -> Dict[str, Any]:
        flushed = await self.submit_control(
            _require_tenant(request), "flush_pending"
        )
        return {"flushed": flushed}

    async def _op_audit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        txn = _require(request, "txn")
        name = _require_tenant(request)
        stamp = self._guard_replica_read(
            self._get(name), request.get("max_lag")
        )
        payload: Dict[str, Any] = {"audit": self.audit(name, txn)}
        if stamp is not None:
            payload["replica"] = stamp
        return payload

    async def _op_query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        what = _require(request, "what")
        name = _require_tenant(request)
        stamp = self._guard_replica_read(
            self._get(name), request.get("max_lag")
        )
        payload: Dict[str, Any] = {what: self.query(name, what)}
        if stamp is not None:
            payload["replica"] = stamp
        return payload

    async def _op_metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"metrics": self.metrics()}

    async def _op_promote(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return await self.promote_tenant(_require_tenant(request))


def _require(request: Dict[str, Any], key: str) -> Any:
    if key not in request:
        raise ProtocolError(f"request is missing the {key!r} field")
    return request[key]


def _require_tenant(request: Dict[str, Any]) -> str:
    tenant = _require(request, "tenant")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError(f"'tenant' must be a non-empty string, got {tenant!r}")
    return tenant


def _exc_message(exc: BaseException) -> str:
    # KeyError repr()s its message; everything else str()s cleanly.
    return exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)


def _error_payload(request_id: Any, code: str, message: str) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if request_id is not None:
        payload["id"] = request_id
    return payload


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_queue_depth: int = 4096,
    yield_every: int = 64,
    tenants: Dict[str, Dict[str, Any]] = (),
    fault_plan: Optional[FaultPlan] = None,
    recover_max_attempts: int = 6,
    recover_backoff: float = 0.05,
    recover_backoff_cap: float = 2.0,
    replica_poll_interval: float = 0.02,
    auto_promote: bool = True,
) -> ReproServer:
    """Convenience: build, pre-create *tenants*, and start a server.

    *tenants* maps tenant name to ``create_tenant`` keyword arguments.
    The caller owns the returned server (``await server.serve_forever()``
    or ``await server.close()``).
    """
    server = ReproServer(
        host,
        port,
        max_queue_depth=max_queue_depth,
        yield_every=yield_every,
        fault_plan=fault_plan,
        recover_max_attempts=recover_max_attempts,
        recover_backoff=recover_backoff,
        recover_backoff_cap=recover_backoff_cap,
        replica_poll_interval=replica_poll_interval,
        auto_promote=auto_promote,
    )
    for name, kwargs in dict(tenants or {}).items():
        server.create_tenant(name, **kwargs)
    await server.start()
    return server
