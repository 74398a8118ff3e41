"""Thin clients for the serving front-end (:mod:`repro.server`).

Two flavors over the same newline-delimited JSON protocol:

* :class:`AsyncServingClient` — for asyncio callers (one reader/writer
  pair, requests issued sequentially on the connection);
* :class:`ServingClient` — a blocking facade that owns a private event
  loop, for the CLI, benchmarks, and tests that drive the server from
  synchronous code (or from another thread entirely).

Error responses are raised as the :mod:`repro.errors` type the server
raised, decoded through the table it encodes by (``WIRE_ERRORS``):
``saturated`` becomes :class:`TenantSaturatedError` (carrying the
``retry_after`` hint), ``degraded`` :class:`TenantDegradedError`, …, and
a code outside the table a plain :class:`RequestRejectedError` with the
machine-readable ``code``.

Fault tolerance (added with the chaos work):

* every request can carry a **deadline** (``timeout=``, or a client-wide
  default) — a silent server raises :class:`RequestTimeoutError` and the
  connection is marked dirty, so the next request reconnects;
* a dropped connection raises :class:`ConnectionDroppedError`; requests
  flagged ``idempotent`` (all the read verbs) transparently reconnect
  and retry once, write verbs surface the drop because their outcome is
  indeterminate;
* :meth:`feed_all` retries ``saturated``/``degraded`` rejections with
  capped exponential backoff + jitter and raises
  :class:`RetriesExhaustedError` (carrying the partial totals) when the
  budget runs out;
* :meth:`feed_resumable` survives mid-batch connection drops and tenant
  demotions by polling ``tenant_info`` until the tenant serves again and
  resuming from the durable ``wal_seq`` watermark (single-writer
  assumption: nobody else feeds the tenant concurrently).

Replication awareness (added with the replica work):

* writes against a replica surface as :class:`NotPrimaryError` (carrying
  the primary's ``wal_dir``), and a ``max_lag``-guarded read that finds
  the replica too far behind raises :class:`ReplicaLaggingError`;
* :meth:`route_reads` registers a per-tenant read replica; ``audit`` /
  ``query`` with ``prefer_replica=True`` try the replica first and fall
  back to the primary when the replica is lagging or gone;
* :meth:`promote` flips a follower tenant into a writable primary, and
  ``feed_resumable(..., failover_to=...)`` uses it to keep a write
  stream going when the primary's recovery budget is exhausted: promote
  the named replica (tolerating a concurrent server-side
  auto-promotion) and resume against it from the same ``wal_seq``
  watermark — the replica tails the same WAL, so the acknowledgment
  arithmetic is unchanged;
* server ``retry_after`` hints are **clamped** at the configured backoff
  cap before sleeping (a confused or adversarial server cannot park the
  client), and the clamp count is surfaced in the feed totals.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import random
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import (
    ConnectionDroppedError,
    ProtocolError,
    ReplicaLaggingError,
    RequestTimeoutError,
    RetriesExhaustedError,
    ServingError,
    TenantDegradedError,
    TenantSaturatedError,
    UnknownTenantError,
    error_from_wire,
)
from repro.io import (
    step_result_from_dict,
    step_to_dict,
    wire_message_from_line,
    wire_message_to_line,
)
from repro.server import MAX_LINE_BYTES

__all__ = ["AsyncServingClient", "ServingClient"]


def _raise_for_error(response: Dict[str, Any]) -> Dict[str, Any]:
    if response.get("ok"):
        return response
    raise error_from_wire(response.get("error") or {})


class AsyncServingClient:
    """One connection to a :class:`~repro.server.ReproServer`.

    Use as an async context manager::

        async with await AsyncServingClient.connect(host, port) as client:
            await client.create_tenant("acme", scheduler="conflict-graph",
                                       policy="eager-c1")
            await client.feed("acme", Begin("T1"))
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port
        self._timeout = timeout
        self._next_id = 0
        self._dirty = False
        self._rng = random.Random(0xB0FF)
        self._read_routes: Dict[str, str] = {}
        self.clamped_hints = 0
        self.replica_fallbacks = 0

    @classmethod
    async def connect(
        cls, host: str, port: int, *, timeout: Optional[float] = None
    ) -> "AsyncServingClient":
        """Open a connection.  *timeout* becomes the per-request default
        deadline (``None`` = wait forever, the pre-chaos behavior)."""
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        return cls(reader, writer, host=host, port=port, timeout=timeout)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def __aenter__(self) -> "AsyncServingClient":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # -- raw protocol -------------------------------------------------------

    async def _reconnect(self) -> None:
        await self.close()
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port, limit=MAX_LINE_BYTES
        )
        self._dirty = False

    async def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._writer.write(
            wire_message_to_line(message).encode("utf-8") + b"\n"
        )
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionDroppedError("server closed the connection")
        return wire_message_from_line(line.decode("utf-8"))

    async def request(
        self,
        payload: Dict[str, Any],
        *,
        timeout: Optional[float] = None,
        idempotent: bool = False,
    ) -> Dict[str, Any]:
        """Send one message, await the matching response, raise on error.

        A connection known to be dirty (a previous request timed out or
        the socket dropped mid-flight) is transparently re-opened before
        sending — stale bytes from the dead exchange can never be
        misread as this request's response.  *idempotent* requests are
        retried once across a fresh connection after a drop; writes are
        not, because the server may have applied them (the caller
        resolves the indeterminacy — see :meth:`feed_resumable`).
        """
        if timeout is None:
            timeout = self._timeout
        attempts = 2 if idempotent and self._host is not None else 1
        for attempt in range(attempts):
            if self._dirty:
                if self._host is None:
                    raise ConnectionDroppedError(
                        "connection is dirty and the client has no "
                        "(host, port) to reconnect with"
                    )
                await self._reconnect()
            self._next_id += 1
            request_id = self._next_id
            message = dict(payload)
            message["id"] = request_id
            try:
                if timeout is not None:
                    response = await asyncio.wait_for(
                        self._roundtrip(message), timeout
                    )
                else:
                    response = await self._roundtrip(message)
            except asyncio.TimeoutError:
                self._dirty = True
                raise RequestTimeoutError(
                    f"no response to {payload.get('op')!r} within {timeout}s"
                ) from None
            except (ConnectionDroppedError, OSError) as exc:
                self._dirty = True
                if attempt + 1 < attempts:
                    continue
                raise ConnectionDroppedError(
                    f"connection dropped during {payload.get('op')!r}: {exc}"
                ) from exc
            if response.get("id") not in (None, request_id):
                raise ProtocolError(
                    f"response id {response.get('id')!r} does not match "
                    f"request id {request_id!r}"
                )
            return _raise_for_error(response)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- lifecycle ----------------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        return await self.request({"op": "ping"}, idempotent=True)

    async def catalog(self) -> Dict[str, Any]:
        return (await self.request({"op": "catalog"}, idempotent=True))[
            "catalog"
        ]

    async def create_tenant(self, tenant: str, **kwargs: Any) -> Dict[str, Any]:
        request: Dict[str, Any] = {"op": "create", "tenant": tenant}
        for key in ("wal_dir", "shards", "checkpoint_interval", "sync",
                    "replica_of"):
            if key in kwargs:
                request[key] = kwargs.pop(key)
        if kwargs:
            request["config"] = kwargs
        return await self.request(request)

    async def open_tenant(self, tenant: str, wal_dir: str) -> Dict[str, Any]:
        return await self.request(
            {"op": "open", "tenant": tenant, "wal_dir": wal_dir}
        )

    async def close_tenant(self, tenant: str) -> Dict[str, Any]:
        return await self.request({"op": "close", "tenant": tenant})

    async def tenants(self) -> List[Dict[str, Any]]:
        return (await self.request({"op": "tenants"}, idempotent=True))[
            "tenants"
        ]

    async def tenant_info(self, tenant: str) -> Dict[str, Any]:
        """One tenant's info dict (state, counters, ``wal_seq`` durable
        watermark when serving, …) — the resume anchor for
        :meth:`feed_resumable`."""
        return (
            await self.request(
                {"op": "tenant", "tenant": tenant}, idempotent=True
            )
        )["info"]

    # -- write path ---------------------------------------------------------

    async def feed(self, tenant: str, step) -> Any:
        response = await self.request(
            {"op": "feed", "tenant": tenant, "step": step_to_dict(step)}
        )
        return step_result_from_dict(response["result"])

    async def feed_batch(
        self, tenant: str, steps: Iterable[Any], *, results: bool = False
    ) -> Dict[str, Any]:
        response = await self.request(
            {
                "op": "feed_batch",
                "tenant": tenant,
                "steps": [step_to_dict(step) for step in steps],
                "results": bool(results),
            }
        )
        if results:
            response["results"] = [
                step_result_from_dict(item) for item in response["results"]
            ]
        return response

    def _retry_pause(self, hint: float, delay: float, cap: float) -> float:
        """Backoff for one retry: at least the server's hint, at most
        the cap, with multiplicative jitter in [0.5, 1.5).

        The server's ``retry_after`` hint is advisory, not binding: a
        hint above the configured cap is clamped to the cap (and
        counted in :attr:`clamped_hints`), so a confused — or
        adversarial — server can never park the client for longer than
        the caller budgeted.
        """
        hint = float(hint)
        if hint > cap:
            hint = cap
            self.clamped_hints += 1
        pause = max(hint, min(delay, cap), 1e-4)
        return pause * (0.5 + self._rng.random())

    async def feed_all(
        self,
        tenant: str,
        steps: Iterable[Any],
        *,
        chunk: int = 256,
        max_retries: int = 64,
        backoff: float = 0.01,
        backoff_cap: float = 1.0,
    ) -> Dict[str, int]:
        """Feed everything, honoring backpressure and outages: a
        ``saturated`` or ``degraded`` rejection is retried with capped
        exponential backoff + jitter (never below the server's
        ``retry_after`` hint).  The retry budget is *bounded*: when it
        runs out — or the server says recovery is permanently exhausted —
        a :class:`RetriesExhaustedError` carrying the partial totals is
        raised instead of looping forever.  A dropped connection is NOT
        retried here (the batch outcome is indeterminate); use
        :meth:`feed_resumable` for that.
        """
        totals = {"count": 0, "accepted": 0, "rejected": 0, "delayed": 0,
                  "ignored": 0, "retries": 0, "clamped": 0}
        clamp_base = self.clamped_hints
        buffer: List[Any] = []

        async def _flush() -> None:
            delay = backoff
            for attempt in range(max_retries + 1):
                try:
                    summary = await self.feed_batch(tenant, buffer)
                except (TenantSaturatedError, TenantDegradedError) as exc:
                    exhausted = bool(getattr(exc, "exhausted", False))
                    if exhausted or attempt == max_retries:
                        raise RetriesExhaustedError(
                            f"gave up feeding tenant {tenant!r} after "
                            f"{attempt + 1} attempt(s): {exc}",
                            attempts=attempt + 1,
                            fed=totals["count"],
                            totals=dict(totals),
                        ) from exc
                    totals["retries"] += 1
                    await asyncio.sleep(
                        self._retry_pause(
                            getattr(exc, "retry_after", 0.0), delay,
                            backoff_cap,
                        )
                    )
                    totals["clamped"] = self.clamped_hints - clamp_base
                    delay = min(delay * 2, backoff_cap)
                else:
                    for key in ("count", "accepted", "rejected", "delayed",
                                "ignored"):
                        totals[key] += summary[key]
                    buffer.clear()
                    return

        for step in steps:
            buffer.append(step)
            if len(buffer) >= chunk:
                await _flush()
        if buffer:
            await _flush()
        return totals

    async def _await_serving(
        self,
        tenant: str,
        *,
        max_polls: int,
        backoff: float,
        backoff_cap: float,
    ) -> Dict[str, Any]:
        """Poll ``tenant_info`` until the tenant serves again; returns
        the serving info dict (with its ``wal_seq`` watermark)."""
        delay = backoff
        for poll in range(max_polls):
            try:
                info = await self.tenant_info(tenant)
            except (ConnectionDroppedError, RequestTimeoutError):
                info = None
            if info is not None:
                if info.get("state") == "serving":
                    return info
                if info.get("recovery_exhausted"):
                    raise RetriesExhaustedError(
                        f"tenant {tenant!r} exhausted its recovery budget "
                        f"({info.get('last_error')})",
                        attempts=poll + 1,
                    )
            await asyncio.sleep(self._retry_pause(0.0, delay, backoff_cap))
            delay = min(delay * 2, backoff_cap)
        raise RetriesExhaustedError(
            f"tenant {tenant!r} did not return to serving within "
            f"{max_polls} polls",
            attempts=max_polls,
        )

    async def feed_resumable(
        self,
        tenant: str,
        steps: Iterable[Any],
        *,
        chunk: int = 256,
        max_retries: int = 16,
        max_polls: int = 200,
        backoff: float = 0.01,
        backoff_cap: float = 1.0,
        failover_to: Optional[str] = None,
    ) -> Dict[str, int]:
        """Feed a *durable* tenant to completion across connection drops,
        worker crashes, and demotions.

        The durable ``wal_seq`` watermark is the acknowledgment ground
        truth: the delta from the starting watermark counts exactly how
        many of *our* steps the server made durable (single-writer
        assumption).  After any indeterminate failure the client waits
        for the tenant to serve again, re-reads the watermark, and
        resumes from the first step not yet on disk — so no acknowledged
        (or even durably-applied) step is ever re-fed, and no step is
        skipped.

        *failover_to* names a replica tenant (tailing the same WAL) to
        promote and switch to if the primary's recovery budget is ever
        exhausted.  Promotion is idempotent on the server, so a race
        with supervisor-driven auto-promotion is harmless.  The starting
        watermark stays valid across the switch — promotion appends no
        WAL records — so the resume arithmetic is unchanged.
        """
        stream = list(steps)
        failed_over = False
        totals = {"count": 0, "accepted": 0, "rejected": 0, "delayed": 0,
                  "ignored": 0, "retries": 0, "resynced": 0, "clamped": 0,
                  "failovers": 0}
        clamp_base = self.clamped_hints

        async def _serving_info() -> Dict[str, Any]:
            nonlocal tenant, failed_over
            try:
                return await self._await_serving(
                    tenant, max_polls=max_polls, backoff=backoff,
                    backoff_cap=backoff_cap,
                )
            except RetriesExhaustedError:
                if failover_to is None or failed_over:
                    raise
                failed_over = True
                totals["failovers"] += 1
                tenant = failover_to
                await self.promote(tenant)
                return await self._await_serving(
                    tenant, max_polls=max_polls, backoff=backoff,
                    backoff_cap=backoff_cap,
                )

        info = await _serving_info()
        base = info.get("wal_seq")
        if base is None:
            raise ServingError(
                f"feed_resumable needs a durable tenant; {tenant!r} "
                "reports no wal_seq watermark"
            )
        fed = 0
        failures = 0
        while fed < len(stream):
            batch = stream[fed : fed + chunk]
            try:
                summary = await self.feed_batch(tenant, batch)
            except (
                TenantSaturatedError,
                TenantDegradedError,
                ConnectionDroppedError,
                RequestTimeoutError,
            ) as exc:
                exhausted = bool(getattr(exc, "exhausted", False))
                if exhausted and (failover_to is None or failed_over):
                    raise RetriesExhaustedError(
                        f"tenant {tenant!r} is permanently degraded: {exc}",
                        attempts=failures + 1, fed=fed, totals=dict(totals),
                    ) from exc
                failures += 1
                if failures > max_retries:
                    raise RetriesExhaustedError(
                        f"gave up feeding tenant {tenant!r} after "
                        f"{failures} failure(s): {exc}",
                        attempts=failures, fed=fed, totals=dict(totals),
                    ) from exc
                totals["retries"] += 1
                if not exhausted:
                    await asyncio.sleep(
                        self._retry_pause(
                            getattr(exc, "retry_after", 0.0),
                            backoff * (2 ** min(failures, 16)),
                            backoff_cap,
                        )
                    )
                    totals["clamped"] = self.clamped_hints - clamp_base
                info = await _serving_info()
                durable = int(info["wal_seq"]) - int(base)
                if durable > fed:
                    # Steps whose acknowledgment we lost are on disk;
                    # account them as resynced, never re-feed them.
                    totals["resynced"] += durable - fed
                    fed = durable
                continue
            failures = 0
            fed += len(batch)
            for key in ("count", "accepted", "rejected", "delayed",
                        "ignored"):
                totals[key] += summary[key]
        return totals

    async def sweep(self, tenant: str) -> List[Any]:
        return (await self.request({"op": "sweep", "tenant": tenant}))["deleted"]

    async def flush_pending(self, tenant: str) -> int:
        return (
            await self.request({"op": "flush_pending", "tenant": tenant})
        )["flushed"]

    # -- replication --------------------------------------------------------

    async def promote(self, tenant: str) -> Dict[str, Any]:
        """Promote a follower tenant to writable primary (idempotent:
        an already-primary tenant answers ``already_primary`` instead of
        erroring)."""
        return await self.request({"op": "promote", "tenant": tenant})

    def route_reads(self, tenant: str, replica: Optional[str]) -> None:
        """Register *replica* as the preferred read target for *tenant*.

        Reads issued with ``prefer_replica=True`` try the replica first
        and fall back to the primary when the replica is lagging past
        the caller's ``max_lag`` bound or is not being served.  Pass
        ``None`` to clear the route.
        """
        if replica is None:
            self._read_routes.pop(tenant, None)
        else:
            self._read_routes[tenant] = replica

    # -- read path ----------------------------------------------------------

    async def _routed_read(
        self,
        tenant: str,
        request: Dict[str, Any],
        *,
        max_lag: Optional[int],
        prefer_replica: bool,
    ) -> Dict[str, Any]:
        request = dict(request)
        if max_lag is not None:
            request["max_lag"] = int(max_lag)
        replica = self._read_routes.get(tenant) if prefer_replica else None
        if replica is not None:
            try:
                return await self.request(
                    dict(request, tenant=replica), idempotent=True
                )
            except (ReplicaLaggingError, UnknownTenantError,
                    TenantDegradedError):
                self.replica_fallbacks += 1
            # Fall back to the primary with no lag bound: it IS the
            # freshness ground truth the bound is measured against.
            request.pop("max_lag", None)
        return await self.request(
            dict(request, tenant=tenant), idempotent=True
        )

    async def audit(
        self,
        tenant: str,
        txn: Any,
        *,
        max_lag: Optional[int] = None,
        prefer_replica: bool = False,
    ) -> Dict[str, Any]:
        response = await self._routed_read(
            tenant, {"op": "audit", "txn": txn},
            max_lag=max_lag, prefer_replica=prefer_replica,
        )
        return response["audit"]

    async def query(
        self,
        tenant: str,
        what: str,
        *,
        max_lag: Optional[int] = None,
        prefer_replica: bool = False,
    ) -> Any:
        response = await self._routed_read(
            tenant, {"op": "query", "what": what},
            max_lag=max_lag, prefer_replica=prefer_replica,
        )
        return response[what]

    async def metrics(self) -> Dict[str, Any]:
        return (await self.request({"op": "metrics"}, idempotent=True))[
            "metrics"
        ]


class ServingClient:
    """Blocking facade over :class:`AsyncServingClient`.

    Owns a private event loop, so it works from plain synchronous code
    and from threads that are not running asyncio — but must *not* be
    called from inside a coroutine (use the async client there).
    """

    def __init__(
        self, host: str, port: int, *, timeout: Optional[float] = None
    ) -> None:
        self._loop = asyncio.new_event_loop()
        self._client: Optional[AsyncServingClient] = None
        self._client = self._run(
            AsyncServingClient.connect(host, port, timeout=timeout)
        )

    def _run(self, coroutine):
        return self._loop.run_until_complete(coroutine)

    def close(self) -> None:
        if self._client is not None:
            self._run(self._client.close())
            self._client = None
        self._loop.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def route_reads(self, tenant: str, replica: Optional[str]) -> None:
        self._client.route_reads(tenant, replica)

    @property
    def clamped_hints(self) -> int:
        return self._client.clamped_hints

    @property
    def replica_fallbacks(self) -> int:
        return self._client.replica_fallbacks


def _blocking(method):
    """The blocking form of one :class:`AsyncServingClient` coroutine
    method: same name, signature, defaults and docstring."""

    @functools.wraps(method)
    def call(self, *args, **kwargs):
        return self._run(method(self._client, *args, **kwargs))

    return call


# Every public verb of the async client, so a verb (or a default) cannot
# be added to one client only.  ``close`` also tears down the loop and
# is written out above.
for _name, _method in vars(AsyncServingClient).items():
    if (
        not _name.startswith("_")
        and _name != "close"
        and inspect.iscoroutinefunction(_method)
    ):
        setattr(ServingClient, _name, _blocking(_method))
del _name, _method
