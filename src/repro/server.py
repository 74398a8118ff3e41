"""Multi-tenant asyncio serving front-end: names, reads, and the wire.

Turns the in-process engine library into an online service: a single
asyncio TCP server hosts many *tenants*, each an independent engine built
through :func:`repro.engine.build_engine` (so ``shards=`` and ``wal_dir=``
tenants serve unchanged), speaking a newline-delimited JSON protocol
(:mod:`repro.io` wire codecs — one line is one message both ways).

Everything about one hosted engine — queue and worker, admission
control, supervised self-healing, the replica tail, promotion, the state
a client polls — is :class:`repro.tenant.Tenant`; the public methods
here resolve a name and delegate.  This module owns:

* the **registry**: tenant names, creation with register-then-rollback
  (a ``wal_dir`` tenant goes through
  :func:`~repro.durability.open_durable`, which recovers an existing
  directory before serving), and which replica takes over when a
  primary's recovery budget is spent (``auto_promote``: the most
  caught-up one, so acknowledged writes keep a home);
* the **read path**: audit lookups, subschedule/tombstone queries and
  ``/metrics`` are answered inline in the connection handler, never
  through a tenant's queue and in every lifecycle state, so reads stay
  latency-bounded under write saturation and keep answering through an
  outage.  A replica stamps each read with ``replica`` (``lag_seq`` /
  ``lag_seconds`` / ``wal_seq``) and refuses one whose ``max_lag`` it
  cannot meet with ``replica_lagging`` rather than answer stale;
* the **wire**: connection handler, dispatch, one ``_op_*`` coroutine
  per verb, and the error envelope.  A refusal never costs the
  connection: structured ones go through the table in
  :mod:`repro.errors` that the client decodes by, malformed traffic is
  ``bad_request``, anything unexpected ``internal``.

Chaos drills: construct the server with a
:class:`~repro.faults.FaultPlan` (``repro serve --fault-plan``) and the
scheduled storage faults, worker crashes, connection drops, and
follower-tail faults fire deterministically — the chaos equivalence
suite drives exactly this path.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os.path
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import registry as _registry
from repro.durability import open_durable
from repro.engine import build_engine
from repro.errors import (
    ModelError,
    ProtocolError,
    ReproError,
    RequestRejectedError,
    ServingError,
    UnknownTenantError,
    error_to_wire,
)
from repro.faults import FaultPlan, FaultyIO, InjectedFault
from repro.io import (
    WIRE_FORMAT,
    schedule_to_list,
    step_from_dict,
    step_result_to_dict,
    wire_message_from_line,
    wire_message_to_line,
)
from repro.tenant import Tenant, TenantCounters

__all__ = ["ReproServer", "TenantCounters", "serve"]

#: Bytes allowed in one wire line (bounds a feed_batch message; asyncio's
#: default 64 KiB readline limit is far too small for real batches).
MAX_LINE_BYTES = 8 * 1024 * 1024


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
        #: What every tenant of this server is built with.  The jitter
        #: source is seeded so drills replay exactly.
        self._tenant_options: Dict[str, Any] = dict(
            max_queue_depth=max_queue_depth,
            yield_every=yield_every,
            recover_max_attempts=recover_max_attempts,
            recover_backoff=recover_backoff,
            recover_backoff_cap=recover_backoff_cap,
            replica_poll_interval=replica_poll_interval,
            io=self._io,
            rng=random.Random(0xC0FFEE),
            on_exhausted=self._spawn_auto_promote,
        )
        self._tenants: Dict[str, Tenant] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections = 0

    # -- registry -----------------------------------------------------------

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
        engine = None
        if replica_of is not None:
            if wal_dir is not None or shards != 1 or config \
                    or checkpoint_interval is not None or sync is not None:
                raise ServingError(
                    "replica_of is mutually exclusive with wal_dir/shards/"
                    "checkpoint_interval/sync/engine config: a replica "
                    "inherits everything from the primary's manifest"
                )
        else:
            shape = dict(
                shards=shards, checkpoint_interval=checkpoint_interval,
                sync=sync, **config,
            )
            if wal_dir is not None:
                engine = open_durable(wal_dir, io=self._io, **shape)
            else:
                engine = build_engine(**shape)
        # The engine (or follower) exists before the name is registered,
        # and a failure after registration deregisters — a half-open
        # tenant must never occupy a name that can neither be used nor
        # re-created.
        tenant = Tenant(
            name, engine, wal_dir=wal_dir, replica_of=replica_of,
            **self._tenant_options,
        )
        self._tenants[name] = tenant
        try:
            tenant.start()
        except BaseException:
            self._tenants.pop(name, None)
            tenant.abandon_storage()
            raise
        return tenant

    def open_tenant(self, name: str, wal_dir: str):
        """Open *name* from an existing WAL directory (lazy recovery)."""
        return self.create_tenant(name, wal_dir=wal_dir)

    async def close_tenant(self, name: str) -> None:
        """Drain the tenant's queue, checkpoint if durable, release it.

        The name leaves the registry even when the final checkpoint (or
        the drain) raises — a failed close must not leave a tenant that
        can neither be used nor re-created.
        """
        tenant = self._get(name)
        try:
            await tenant.close()
        finally:
            self._tenants.pop(name, None)

    async def promote_tenant(self, name: str) -> Dict[str, Any]:
        """Flip a replica tenant into a writable primary
        (:meth:`repro.tenant.Tenant.promote`: idempotent, refused with
        ``primary_alive`` while the real primary holds the WAL lock,
        ``promotion_failed`` otherwise — the replica keeps tailing)."""
        return await self._get(name).promote()

    def _spawn_auto_promote(self, failed: Tenant) -> None:
        """Schedule promotion of *failed*'s most caught-up replica.

        Called when a durable primary exhausts its recovery budget: its
        engine is closed and the WAL lock surrendered, so a replica of
        the same directory can seal the log and take over.  The most
        advanced watermark wins (it loses the least).
        """
        if not self.auto_promote or failed.wal_dir is None:
            return
        failed_dir = os.path.abspath(str(failed.wal_dir))
        replicas = [
            tenant for tenant in self._tenants.values()
            if tenant.follower is not None
            and not tenant.closed
            and os.path.abspath(str(tenant.replica_of)) == failed_dir
        ]
        if not replicas:
            return
        name = max(replicas, key=lambda tenant: tenant.follower.wal_seq).name
        asyncio.get_running_loop().create_task(
            self._auto_promote(name), name=f"repro-promote-{name}"
        )

    async def _auto_promote(self, name: str) -> None:
        try:
            await self.promote_tenant(name)
        except ReproError:
            # The tenant restarted tailing and recorded the cause; the
            # operator sees it in tenant_info.
            pass

    def tenants(self) -> List[Dict[str, Any]]:
        return [tenant.info() for tenant in self._tenants.values()]

    def _get(self, name: Any) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None or tenant.closed:
            raise UnknownTenantError(name)
        return tenant

    # -- write path ---------------------------------------------------------

    async def submit(self, name: str, steps: List[Any]) -> List[Any]:
        """Enqueue *steps* for *name* and await their StepResults.

        Raises :class:`TenantSaturatedError` instead of blocking when the
        tenant's backlog would exceed ``max_queue_depth``.
        """
        return await self._get(name).submit(steps)

    async def submit_control(self, name: str, kind: str) -> Any:
        """Enqueue a control op ("sweep" / "flush_pending") — serialized
        with the write stream, so it lands at a well-defined position."""
        return await self._get(name).submit_control(kind)

    # -- read path ----------------------------------------------------------

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
                **tenant.info(),
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
            tenant.start()
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
        except (RequestRejectedError, UnknownTenantError) as exc:
            # Every structured refusal, through the one table the client
            # decodes by.  (UnknownTenantError is a KeyError: this arm
            # must come before the bad_request one.)
            return _error_payload(request_id, **error_to_wire(exc))
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
        return {"info": self._get(_require_tenant(request)).info()}

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

    def _read(
        self, request: Dict[str, Any], key: str, answer: Callable[[str], Any]
    ) -> Dict[str, Any]:
        """One read: lag-guard the tenant, then *answer* from it, stamped
        with the replica's freshness when it is one."""
        name = _require_tenant(request)
        stamp = self._get(name).guard_read(request.get("max_lag"))
        payload: Dict[str, Any] = {key: answer(name)}
        if stamp is not None:
            payload["replica"] = stamp
        return payload

    async def _op_audit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        txn = _require(request, "txn")
        return self._read(request, "audit", lambda name: self.audit(name, txn))

    async def _op_query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        what = _require(request, "what")
        return self._read(request, what, lambda name: self.query(name, what))

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


def _error_payload(
    request_id: Any, code: str, message: str, **fields: Any
) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message, **fields},
    }
    if request_id is not None:
        payload["id"] = request_id
    return payload


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    tenants: Dict[str, Dict[str, Any]] = (),
    **options: Any,
) -> ReproServer:
    """Convenience: build, pre-create *tenants*, and start a server.

    *tenants* maps tenant name to ``create_tenant`` keyword arguments;
    *options* are :class:`ReproServer`'s keywords (and defaults).  The
    caller owns the returned server (``await server.serve_forever()``
    or ``await server.close()``).
    """
    server = ReproServer(host, port, **options)
    for name, kwargs in dict(tenants or {}).items():
        server.create_tenant(name, **kwargs)
    await server.start()
    return server
