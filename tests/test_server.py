"""Serving front-end behavior: admission control, reads under write
saturation, durable tenant lifecycle, protocol robustness, clients.

Complements ``test_serving_equivalence.py`` (which proves the served
results equal standalone engines); this module exercises the *service*
semantics the equivalence suite takes for granted: a full queue rejects
with a structured ``saturated`` error instead of hanging, audit reads
answer while a write batch is in flight, a ``wal_dir`` tenant survives a
close/open cycle, malformed wire traffic gets structured errors rather
than dropped connections, and the blocking client drives a server running
in another thread.

No pytest-asyncio in the image: tests run their own loops via
``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import inspect
import shutil
import threading
import time

import pytest

from repro import errors
from repro.client import AsyncServingClient, ServingClient, _raise_for_error
from repro.durability import recover
from repro.engine import Engine, build_engine
from repro.errors import (
    WIRE_ERRORS,
    NotPrimaryError,
    ReplicaLaggingError,
    RequestRejectedError,
    TenantDegradedError,
    TenantSaturatedError,
    UnknownTenantError,
)
from repro.io import (
    engine_snapshot_to_json,
    wire_message_from_line,
    wire_message_to_line,
)
from repro.model.steps import Begin, Finish, Read, Write
from repro.server import ReproServer, serve
from repro.workloads.banking import BankingConfig, banking_stream


def _steps(n: int, prefix: str = "T"):
    out = []
    for i in range(n // 3 + 1):
        txn = f"{prefix}{i}"
        out.extend([Begin(txn), Read(txn, f"e{i % 5}"),
                    Write(txn, {f"e{i % 5}"})])
    return out[:n]


class TestAdmissionControl:
    def test_saturated_write_rejects_with_retry_after(self):
        async def _run() -> None:
            server = ReproServer(max_queue_depth=4)
            server.create_tenant(
                "t", scheduler="conflict-graph", policy="never"
            )
            # Fill the backlog from a sibling task; asyncio runs ready
            # callbacks FIFO, so after one sleep(0) the first submit has
            # enqueued (pending=4) but the worker has not drained yet.
            filler = asyncio.get_running_loop().create_task(
                server.submit("t", _steps(4))
            )
            await asyncio.sleep(0)
            with pytest.raises(TenantSaturatedError) as info:
                await server.submit("t", _steps(3, prefix="X"))
            assert info.value.code == "saturated"
            assert info.value.retry_after > 0
            await filler  # backlog drains; admission opens again
            await server.submit("t", _steps(3, prefix="Y"))
            await server.close()

        asyncio.run(_run())

    def test_oversized_batch_is_rejected_outright(self):
        async def _run() -> None:
            server = ReproServer(max_queue_depth=8)
            host, port = await server.start()
            try:
                async with await AsyncServingClient.connect(host, port) as c:
                    await c.create_tenant(
                        "t", scheduler="conflict-graph", policy="never"
                    )
                    with pytest.raises(RequestRejectedError) as info:
                        await c.feed_batch("t", _steps(9))
                    # Not "saturated": waiting would never admit it.
                    assert info.value.code == "too_large"
            finally:
                await server.close()

        asyncio.run(_run())

    def test_rejections_are_counted_in_metrics(self):
        async def _run() -> None:
            server = ReproServer(max_queue_depth=2)
            host, port = await server.start()
            try:
                async with await AsyncServingClient.connect(host, port) as c:
                    await c.create_tenant(
                        "t", scheduler="conflict-graph", policy="never"
                    )
                    with pytest.raises(RequestRejectedError):
                        await c.feed_batch("t", _steps(5))
                    metrics = await c.metrics()
                    assert (
                        metrics["tenants"]["t"]["admissions_rejected"] == 1
                    )
            finally:
                await server.close()

        asyncio.run(_run())

    def test_client_feed_all_honors_backpressure(self):
        async def _run() -> None:
            server = ReproServer(max_queue_depth=16, yield_every=4)
            host, port = await server.start()
            try:
                async with await AsyncServingClient.connect(host, port) as c:
                    await c.create_tenant(
                        "t", scheduler="conflict-graph", policy="eager-c1"
                    )
                    steps = list(banking_stream(BankingConfig(
                        n_accounts=16, n_transfers=80, seed=1
                    )))
                    totals = await c.feed_all("t", steps, chunk=8)
                    assert totals["count"] == len(steps)
            finally:
                await server.close()

        asyncio.run(_run())


class TestReadsUnderSaturation:
    def test_audit_answers_while_batch_in_flight(self):
        """A second connection's audit read completes before a large
        write batch does — the read path does not sit in the queue."""

        async def _run() -> None:
            server = ReproServer(max_queue_depth=100_000, yield_every=8)
            host, port = await server.start()
            try:
                writer = await AsyncServingClient.connect(host, port)
                reader = await AsyncServingClient.connect(host, port)
                await writer.create_tenant(
                    "t", scheduler="conflict-graph", policy="eager-c1"
                )
                await writer.feed_batch("t", [Begin("SEED"),
                                              Read("SEED", "e0"),
                                              Write("SEED", {"e0"})])
                steps = list(banking_stream(BankingConfig(
                    n_accounts=64, n_transfers=1500, seed=2
                )))
                done_at = {}

                async def _write() -> None:
                    await writer.feed_batch("t", steps)
                    done_at["write"] = time.perf_counter()

                async def _read() -> None:
                    await asyncio.sleep(0.01)  # land mid-batch
                    record = await reader.audit("t", "SEED")
                    done_at["read"] = time.perf_counter()
                    assert record["status"] in ("live", "deleted")
                    assert record["accepted_at"] == 1

                await asyncio.gather(_write(), _read())
                assert done_at["read"] < done_at["write"], (
                    "audit read should finish before the saturating batch"
                )
                await writer.close()
                await reader.close()
            finally:
                await server.close()

        asyncio.run(_run())


class TestDurableTenants:
    def test_close_then_open_recovers_history(self, tmp_path):
        wal = str(tmp_path / "acme-wal")

        async def _run() -> None:
            server = ReproServer()
            host, port = await server.start()
            try:
                async with await AsyncServingClient.connect(host, port) as c:
                    created = await c.create_tenant(
                        "acme", wal_dir=wal,
                        scheduler="conflict-graph", policy="eager-c1",
                    )
                    assert created["durable"] is True
                    await c.feed_batch("acme", [
                        Begin("T1"), Read("T1", "x"), Write("T1", {"x"}),
                        Begin("T2"), Read("T2", "y"),
                    ])
                    deleted = await c.query("acme", "deleted")
                    await c.close_tenant("acme")
                    with pytest.raises(UnknownTenantError):
                        await c.audit("acme", "T1")
                    opened = await c.open_tenant("acme", wal)
                    assert opened["tenant"] == "acme"
                    stats = await c.query("acme", "stats")
                    assert stats["steps_fed"] == 5
                    assert await c.query("acme", "deleted") == deleted
                    assert await c.query("acme", "live") == ["T2"]
                    # Served history extends across the reopen seam.
                    await c.feed_batch("acme", [Read("T2", "y"),
                                                Write("T2", {"y"})])
                    assert (await c.query("acme", "stats"))["steps_fed"] == 7
            finally:
                await server.close()

        asyncio.run(_run())

    def test_create_on_existing_wal_dir_recovers(self, tmp_path):
        """`create` with a wal_dir that already has history recovers it
        (the open-from-wal path), instead of failing or truncating."""
        wal = str(tmp_path / "w")
        durable = build_engine(
            scheduler="conflict-graph", policy="never", wal_dir=wal
        )
        durable.feed_batch([Begin("A"), Read("A", "x")])
        durable.close(checkpoint=True)

        async def _run() -> None:
            server = ReproServer()
            host, port = await server.start()
            try:
                async with await AsyncServingClient.connect(host, port) as c:
                    await c.create_tenant(
                        "t", wal_dir=wal,
                        scheduler="conflict-graph", policy="never",
                    )
                    assert (await c.query("t", "stats"))["steps_fed"] == 2
                    assert await c.query("t", "live") == ["A"]
            finally:
                await server.close()

        asyncio.run(_run())


class TestFlushPendingOnEveryTenantShape:
    """``flush_pending`` is part of the façade every engine answers: a
    monolith defers nothing and says 0.  (It used to exist on every
    durable engine yet raise ``AttributeError`` on a monolith, which the
    worker classified as an infrastructure failure: one request cost the
    tenant a demotion and a crash/recover cycle.)"""

    STEPS = [
        Begin("T1"), Read("T1", "x"), Write("T1", {"x"}),
        Begin("T2"), Begin("T3"),  # no footprint yet: a router defers these
    ]
    MORE = [Read("T2", "y"), Write("T2", {"y"}), Begin("T4")]

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("durable", [False, True])
    def test_answers_a_count_and_never_demotes(self, tmp_path, durable, shards):
        wal = tmp_path / "wal"
        config = {"scheduler": "conflict-graph", "policy": "eager-c1"}
        twin = build_engine(shards=shards, **config)
        for step in self.STEPS:
            twin.feed(step)
        expected = twin.flush_pending()
        assert expected == (2 if shards > 1 else 0)
        for step in self.MORE:
            twin.feed(step)

        async def _run() -> None:
            server = ReproServer()
            host, port = await server.start()
            try:
                async with await AsyncServingClient.connect(host, port) as c:
                    where = {"wal_dir": str(wal)} if durable else {}
                    await c.create_tenant("t", shards=shards, **where, **config)
                    await c.feed_batch("t", self.STEPS)
                    assert await c.flush_pending("t") == expected
                    await c.feed_batch("t", self.MORE)  # still taking writes
                    info = await c.tenant_info("t")
                    assert info["state"] == "serving"
                    assert info["demotions"] == 0
                    assert info["recover_attempts"] == 0
                    assert info["last_error"] is None
                    if durable:
                        # A copy of the live directory carries no lock:
                        # recovering it replays the logged control record.
                        shutil.copytree(wal, tmp_path / "copy")
            finally:
                await server.close()

        asyncio.run(_run())
        if durable:
            recovered = recover(tmp_path / "copy")
            try:
                assert recovered.recovery_info.replayed_controls == 1
                assert engine_snapshot_to_json(
                    recovered.engine.snapshot()
                ) == engine_snapshot_to_json(twin.snapshot())
            finally:
                recovered.close()


class TestProtocol:
    async def _raw_roundtrip(self, host, port, lines):
        reader, writer = await asyncio.open_connection(host, port)
        responses = []
        for line in lines:
            writer.write(line + b"\n")
            await writer.drain()
            responses.append(
                wire_message_from_line((await reader.readline()).decode())
            )
        writer.close()
        await writer.wait_closed()
        return responses

    def test_malformed_lines_get_structured_errors(self):
        async def _run() -> None:
            server = ReproServer()
            host, port = await server.start()
            try:
                responses = await self._raw_roundtrip(host, port, [
                    b"not json at all",
                    b'["an", "array"]',
                    b'{"no_op": true}',
                    b'{"op": "frobnicate"}',
                    b'{"op": "feed", "tenant": "missing"}',
                    b'{"op": "audit", "tenant": "nope", "txn": "T1"}',
                    wire_message_to_line({"op": "ping"}).encode(),
                ])
                codes = [
                    None if r["ok"] else r["error"]["code"]
                    for r in responses
                ]
                assert codes == [
                    "bad_request", "bad_request", "bad_request",
                    "bad_request", "bad_request", "unknown_tenant", None,
                ]
                # The connection survived all six errors.
                assert responses[-1]["server"] == "repro"
            finally:
                await server.close()

        asyncio.run(_run())

    @pytest.mark.parametrize("shards", ["abc", 1.5, None, 0, True])
    def test_create_with_malformed_shards_is_a_bad_request(self, shards):
        """Not ``internal`` (a ``ValueError`` out of ``int()``), and not a
        silent truncation of 1.5 to one shard."""

        async def _run() -> None:
            server = ReproServer()
            host, port = await server.start()
            try:
                refused, listing = await self._raw_roundtrip(host, port, [
                    wire_message_to_line(
                        {"op": "create", "tenant": "t", "shards": shards}
                    ).encode(),
                    wire_message_to_line({"op": "tenants"}).encode(),
                ])
                assert not refused["ok"]
                assert refused["error"]["code"] == "bad_request"
                assert "'shards'" in refused["error"]["message"]
                assert listing["tenants"] == []  # nothing was created
            finally:
                await server.close()

        asyncio.run(_run())

    def test_engine_errors_surface_without_killing_the_tenant(self):
        """A step the scheduler refuses at protocol level (unknown txn in
        the predeclared model) comes back as an error response; the
        tenant keeps serving afterwards."""

        async def _run() -> None:
            server = ReproServer()
            host, port = await server.start()
            try:
                async with await AsyncServingClient.connect(host, port) as c:
                    await c.create_tenant(
                        "t", scheduler="predeclared", policy="eager-c4"
                    )
                    with pytest.raises(RequestRejectedError):
                        await c.feed("t", Read("GHOST", "x"))
                    from repro.model.status import AccessMode
                    from repro.model.steps import BeginDeclared

                    result = await c.feed(
                        "t", BeginDeclared("REAL", {"x": AccessMode.READ})
                    )
                    assert result.accepted
            finally:
                await server.close()

        asyncio.run(_run())

    def test_request_ids_echo_on_success_and_error(self):
        async def _run() -> None:
            server = ReproServer()
            host, port = await server.start()
            try:
                responses = await self._raw_roundtrip(host, port, [
                    wire_message_to_line({"op": "ping", "id": 7}).encode(),
                    wire_message_to_line(
                        {"op": "audit", "tenant": "x", "txn": "T",
                         "id": 8}
                    ).encode(),
                ])
                assert responses[0]["id"] == 7
                assert responses[1]["id"] == 8 and not responses[1]["ok"]
            finally:
                await server.close()

        asyncio.run(_run())


class TestWireErrorTable:
    """One table (``repro.errors.WIRE_ERRORS``) is the wire format of
    every structured refusal, for the server's encoder and the client's
    decoder alike."""

    RAISED = [
        TenantSaturatedError("queue is full", retry_after=0.25),
        TenantDegradedError("degraded", retry_after=1.5, exhausted=True),
        NotPrimaryError("replica", primary_wal_dir="/var/wal/acme"),
        ReplicaLaggingError(
            "behind", lag_seq=7, lag_seconds=0.5, max_lag=2, retry_after=0.02
        ),
        UnknownTenantError("ghost"),
        RequestRejectedError("too_large", "split it"),
    ]

    @pytest.mark.parametrize("raised", RAISED, ids=lambda e: type(e).__name__)
    def test_round_trip_server_to_client(self, raised):
        """Raise inside a verb, through ``_dispatch_line`` and the line
        codec, out of ``_raise_for_error``: same class, equal fields."""

        async def _run():
            server = ReproServer()

            async def _op_boom(request):
                raise raised

            server._op_boom = _op_boom
            request = wire_message_to_line({"op": "boom", "id": 3})
            return await server._dispatch_line(request.encode())

        response = wire_message_from_line(
            wire_message_to_line(asyncio.run(_run()))
        )
        assert response["ok"] is False and response["id"] == 3
        fields = [name for name, _kind in type(raised).wire_fields]
        assert sorted(response["error"]) == sorted(["code", "message"] + fields)
        with pytest.raises(type(raised)) as info:
            _raise_for_error(response)
        decoded = info.value
        assert type(decoded) is type(raised)
        assert str(decoded) == str(raised)
        for name in fields:
            assert getattr(decoded, name) == getattr(raised, name), name
            assert type(getattr(decoded, name)) is type(getattr(raised, name))
        if isinstance(raised, RequestRejectedError):
            assert decoded.code == raised.code == response["error"]["code"]

    def test_every_refusal_class_is_in_the_table(self):
        declared = {
            cls for cls in vars(errors).values()
            if isinstance(cls, type)
            and issubclass(cls, RequestRejectedError)
            and cls is not RequestRejectedError
        }
        assert declared <= set(WIRE_ERRORS.values())
        assert set(WIRE_ERRORS.values()) - declared == {UnknownTenantError}
        for code, cls in WIRE_ERRORS.items():
            assert cls.wire_code == code and cls.wire_fields

    def test_missing_fields_take_the_class_defaults(self):
        for code, cls in WIRE_ERRORS.items():
            with pytest.raises(cls):
                _raise_for_error(
                    {"ok": False, "error": {"code": code, "message": "m"}}
                )
        with pytest.raises(RequestRejectedError) as info:
            _raise_for_error({"ok": False})
        assert info.value.code == "error"

    def test_wire_key_order_is_code_message_then_fields(self):
        error = errors.error_to_wire(
            ReplicaLaggingError("m", lag_seq=1, max_lag=0)
        )
        assert list(error) == [
            "code", "message", "lag_seq", "lag_seconds", "max_lag",
            "retry_after",
        ]


class TestDefaultsStatedOnce:
    def test_blocking_client_mirrors_every_async_verb(self):
        verbs = [
            name for name, method in vars(AsyncServingClient).items()
            if not name.startswith("_") and inspect.iscoroutinefunction(method)
        ]
        assert len(verbs) >= 19 and "feed_resumable" in verbs
        for name in verbs:
            blocking = getattr(ServingClient, name)
            assert not inspect.iscoroutinefunction(blocking), name
            if name == "close":  # also tears the private loop down
                continue
            method = getattr(AsyncServingClient, name)
            assert inspect.signature(blocking) == inspect.signature(method), name
            assert blocking.__doc__ == method.__doc__, name

    def test_serve_passes_the_servers_keywords_through(self):
        async def _run() -> None:
            server = await serve(
                tenants={"t": {"scheduler": "conflict-graph", "policy": "never"}},
                max_queue_depth=5, replica_poll_interval=0.5,
            )
            try:
                assert server.max_queue_depth == 5
                assert server.replica_poll_interval == 0.5
                assert server.yield_every == ReproServer().yield_every
                assert [t["tenant"] for t in server.tenants()] == ["t"]
            finally:
                await server.close()
            with pytest.raises(TypeError):
                await serve(no_such_option=1)

        asyncio.run(_run())

    def test_serve_flags_default_to_the_servers_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        server = ReproServer()
        for flag, attribute in [
            ("host", "host"),
            ("queue_depth", "max_queue_depth"),
            ("yield_every", "yield_every"),
            ("recover_max_attempts", "recover_max_attempts"),
            ("recover_backoff", "recover_backoff"),
            ("recover_backoff_cap", "recover_backoff_cap"),
            ("replica_poll_interval", "replica_poll_interval"),
        ]:
            assert getattr(args, flag) == getattr(server, attribute), flag
        assert server.auto_promote is not args.no_auto_promote


class TestSyncClient:
    def test_blocking_client_against_threaded_server(self):
        """The blocking facade drives a server owned by another thread's
        event loop — the CLI / benchmark deployment shape."""
        started = threading.Event()
        stop = threading.Event()
        bound = {}

        def _serve() -> None:
            async def _main() -> None:
                server = ReproServer()
                bound["hostport"] = await server.start()
                started.set()
                while not stop.is_set():
                    await asyncio.sleep(0.01)
                await server.close()

            asyncio.run(_main())

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        assert started.wait(5.0)
        host, port = bound["hostport"]
        try:
            with ServingClient(host, port) as client:
                client.create_tenant(
                    "t", scheduler="conflict-graph", policy="eager-c1"
                )
                steps = list(banking_stream(BankingConfig(
                    n_accounts=16, n_transfers=40, seed=3
                )))
                totals = client.feed_all("t", steps, chunk=64)
                assert totals["count"] == len(steps)
                deleted = client.query("t", "deleted")
                if deleted:
                    record = client.audit("t", deleted[0])
                    assert record["status"] == "deleted"
                metrics = client.metrics()
                assert metrics["tenants"]["t"]["steps_served"] == len(steps)
        finally:
            stop.set()
            thread.join(5.0)


class TestAuditAccessor:
    """The Engine.audit satellite, at the library level."""

    def test_statuses_cover_live_deleted_aborted_unknown(self):
        engine = Engine(scheduler="conflict-graph", policy="never")
        engine.feed(Begin("L"))
        engine.feed(Read("L", "x"))
        engine.feed(Begin("A"))
        engine.feed(Read("A", "x"))
        engine.feed(Write("A", {"x"}))   # A completes
        engine.feed(Write("L", {"x"}))   # L's write after A's -> L aborts
        live = engine.audit("A")
        assert live.status == "live" and live.accepted_at == 3
        aborted = engine.audit("L")
        assert aborted.status == "aborted" and aborted.accepted_at == 1
        unknown = engine.audit("NEVER_SEEN")
        assert unknown.status == "unknown"
        assert unknown.accepted_at is None

    def test_deletion_tick_matches_sweep_position(self):
        engine = Engine(scheduler="conflict-graph", policy="eager-c1",
                        sweep_interval=100)
        for step in [Begin("T"), Read("T", "x"), Write("T", {"x"}),
                     Begin("U"), Read("U", "y")]:
            engine.feed(step)
        assert engine.audit("T").status == "live"
        engine.sweep()
        record = engine.audit("T")
        assert record.status == "deleted"
        assert record.deleted_at == 5  # swept after the fifth step
        assert record.accepted_at == 1

    def test_sharded_audit_agrees_with_monolith(self):
        mono = Engine(scheduler="conflict-graph", policy="eager-c1")
        sharded = build_engine(
            scheduler="conflict-graph", policy="eager-c1", shards=2
        )
        steps = [Begin("T1"), Read("T1", "x"), Write("T1", {"x"}),
                 Begin("T2"), Read("T2", "y"), Write("T2", {"y"})]
        for step in steps:
            mono.feed(step)
            sharded.feed(step)
        for txn in ("T1", "T2", "NOPE"):
            assert sharded.audit(txn).as_dict() == mono.audit(txn).as_dict()

    def test_as_dict_is_json_ready(self):
        import json

        engine = Engine(scheduler="conflict-graph", policy="never")
        engine.feed(Begin("T"))
        payload = engine.audit("T").as_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestBuildEngineStrictKwargs:
    """The build_engine validation satellite."""

    def test_unknown_kwarg_names_the_key_and_suggests(self):
        with pytest.raises(ValueError, match="waldir"):
            build_engine(scheduler="conflict-graph", waldir="/tmp/x")
        with pytest.raises(ValueError, match="did you mean 'wal_dir'"):
            build_engine(scheduler="conflict-graph", waldir="/tmp/x")

    def test_durability_knobs_require_wal_dir(self):
        with pytest.raises(ValueError, match="wal_dir"):
            build_engine(scheduler="conflict-graph", checkpoint_interval=8)
        with pytest.raises(ValueError, match="wal_dir"):
            build_engine(scheduler="conflict-graph", sync="always")

    def test_valid_kwargs_still_build(self, tmp_path):
        assert isinstance(
            build_engine(scheduler="conflict-graph", policy="never"), Engine
        )
        durable = build_engine(
            scheduler="conflict-graph", policy="never",
            wal_dir=str(tmp_path / "w"), checkpoint_interval=8,
        )
        assert durable.checkpoint_interval == 8
        durable.close()
