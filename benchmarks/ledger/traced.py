"""The per-layer ladder: ``--trace 1`` re-runs a workload's stream in
process, up a ladder of public entry points, with spans at every seam.

Rungs, innermost first (each is a public entry point, driven from here):

* **kernel** — the run's arcs, deletions and aborts replayed into a fresh
  ``BitClosureGraph``;
* **engine** — ``Engine.from_parts(scheduler, policy)`` with timing
  proxies around ``scheduler.feed``, ``scheduler.delete_transactions``
  and ``policy.select``;
* **durable** — ``DurableEngine(io=TimedIO)`` with explicit, timed
  ``checkpoint()`` calls at the workload's interval and the same proxies
  on the engine it wraps;
* **submit** — ``ReproServer.submit`` in this process's event loop;
* **served** — the real ``repro serve`` subprocess over TCP (the
  untraced workload's own load loop, shorter).

A span is ``(name, start_ns, end_ns, parent, step_id)``, kept in memory
and written out when the run ends.  A layer's self time is its spans'
duration minus the part their child spans cover; where no seam exists
(server queue, wire) the layer's cost is the difference between two
rungs over the same stream.  Codec costs come from replaying the run's
messages through the public ``repro.io`` functions.  No span lives in
``src/repro``; that is a later issue.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import statistics
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import measure
import workloads
from harness import Run, copy_wal_dir
from streams import banking_steps
from workloads import (
    BULK_BATCH,
    BULK_CHECKPOINT_INTERVAL,
    BULK_SHARDS,
    CHAIN_CHECKPOINT_INTERVAL,
    CHEAP_ENGINE,
    RESIDENT_ENGINE,
    STEP_CHECKPOINT_INTERVAL,
)

from repro import (
    BitClosureGraph,
    CallbackObserver,
    DurableEngine,
    Engine,
    ReproServer,
    WalFollower,
    build_engine,
    create_policy,
    create_scheduler,
    recover,
)
from repro.faults import StorageIO
from repro.io import (
    engine_snapshot_to_json,
    step_from_dict,
    step_result_from_dict,
    step_result_to_dict,
    step_to_dict,
    wal_record_from_line,
    wal_record_to_line,
    wire_message_from_line,
    wire_message_to_line,
)
from repro.model.steps import Begin

SPANS_DIR = pathlib.Path(__file__).resolve().parent / "results"
#: Spans written per run; the rest are counted, not written.
SPANS_WRITTEN = 100_000

Span = Tuple[str, int, int, int, int]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans with parent links; ``wrap`` is the timing proxy."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.current = -1
        self.step_id = -1

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* with a span recorded around every call."""
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = self.current
            index = len(spans)
            spans.append(None)
            self.current = index
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.step_id)
                self.current = parent

        return traced

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_us`` and ``self_us`` (total
        minus what child spans cover)."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            assert span is not None
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            assert span is not None
            entry = out.setdefault(
                span[0], {"count": 0, "total_us": 0.0, "self_us": 0.0}
            )
            duration = span[2] - span[1]
            entry["count"] += 1
            entry["total_us"] += duration / 1e3
            entry["self_us"] += (duration - child_ns[index]) / 1e3
        return out

    def dump(self, path: pathlib.Path) -> None:
        """One JSON span per line: name, start, end, parent, step."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans[:SPANS_WRITTEN]:
                handle.write(json.dumps(span) + "\n")


def _per(totals: Dict[str, Dict[str, float]], name: str, key: str,
         divisor: Optional[float] = None) -> float:
    """``totals[name][key]`` per *divisor* (per call when none is given);
    0 when the span never occurred."""
    entry = totals.get(name)
    if entry is None:
        return 0.0
    divisor = entry["count"] if divisor is None else divisor
    return entry[key] / divisor if divisor else 0.0


class TimedIO(StorageIO):
    """``StorageIO`` with a span and a counter at every storage call."""

    def __init__(self, recorder: SpanRecorder) -> None:
        parent = super()
        self._append = recorder.wrap("io.append_line", parent.append_line)
        self._fsync = recorder.wrap("io.fsync", parent.fsync)
        self._fsync_dir = recorder.wrap("io.fsync_dir", parent.fsync_dir)
        self._write_checkpoint = recorder.wrap(
            "io.write_checkpoint", parent.write_checkpoint
        )
        self.wal_bytes = 0
        self.checkpoint_bytes = 0
        self.fsyncs = 0

    def append_line(self, handle, line: str) -> None:
        self.wal_bytes += len(line) + 1
        self._append(handle, line)

    def fsync(self, handle) -> None:
        self.fsyncs += 1
        self._fsync(handle)

    def fsync_dir(self, directory) -> None:
        self.fsyncs += 1
        self._fsync_dir(directory)

    def write_checkpoint(self, path, text: str, *, fsync: bool = True) -> None:
        self.checkpoint_bytes += len(text)
        if fsync:
            self.fsyncs += 1  # the checkpoint file's own fsync
        self._write_checkpoint(path, text, fsync=fsync)


# ---------------------------------------------------------------------------
# Engine seams
# ---------------------------------------------------------------------------


def instrument_engine(recorder: SpanRecorder, engine: Engine) -> None:
    """Timing proxies on one plain engine's public seams."""
    scheduler, policy = engine.scheduler, engine.policy
    scheduler.feed = recorder.wrap("scheduler.feed", scheduler.feed)
    scheduler.delete_transactions = recorder.wrap(
        "scheduler.delete", scheduler.delete_transactions
    )
    policy.select = recorder.wrap("policy.select", policy.select)
    engine.feed = recorder.wrap("engine.feed", engine.feed)


class KernelLog:
    """The closure kernel's event stream — every scheduler result and
    every deletion, in order — from an engine's public observer hooks."""

    def __init__(self, engine) -> None:
        self.events: List[Tuple[str, Any]] = []
        engine.subscribe(CallbackObserver(
            on_step=lambda _engine, result: self.events.append(
                ("step", result)
            ),
            on_delete=lambda _engine, deleted, _index: self.events.append(
                ("delete", deleted)
            ),
        ))


class SweepTally:
    """Sweeps run, sweeps that deleted, and transactions deleted, counted
    from the moment it subscribes."""

    def __init__(self, engine) -> None:
        self.sweeps = self.useful = self.deleted = 0
        engine.subscribe(CallbackObserver(on_sweep=self._on_sweep))

    def _on_sweep(self, _engine, report) -> None:
        self.sweeps += 1
        self.useful += report.deleted_anything
        self.deleted += len(report.selected)


def _shards_of(engine) -> Sequence[Engine]:
    return getattr(engine, "shards", (engine,))


def _live_size(engine) -> int:
    return sum(len(shard.graph) for shard in _shards_of(engine))


def engine_metrics(
    run: Run, totals: Dict[str, Dict[str, float]], tally: SweepTally,
    results: Sequence[Any], resident_mean: float,
) -> None:
    """``engine.*``, ``scheduler.*``, ``policies.*`` and
    ``reduced_graph.*`` from the engine seam's spans and counters."""
    steps = len(results)
    begun = sum(1 for r in results if isinstance(r.step, Begin))
    m = run.metrics
    m["engine.self_us_per_step"] = _per(totals, "engine.feed", "self_us", steps)
    m["scheduler.feed_us_per_step"] = _per(
        totals, "scheduler.feed", "total_us", steps
    )
    m["scheduler.delete_us_per_txn"] = _per(
        totals, "scheduler.delete", "total_us", tally.deleted
    )
    m["scheduler.accept_ratio"] = sum(r.accepted for r in results) / steps
    m["scheduler.abort_ratio"] = (
        sum(len(r.aborted) for r in results) / max(1, begun)
    )
    m["policies.select_us_per_sweep"] = _per(
        totals, "policy.select", "total_us", tally.sweeps
    )
    m["policies.deleted_per_sweep"] = tally.deleted / max(1, tally.sweeps)
    m["policies.useful_sweep_ratio"] = tally.useful / max(1, tally.sweeps)
    m["reduced_graph.resident_mean"] = resident_mean


def replay_kernel(run: Run, events: Iterable[Tuple[str, Any]]) -> None:
    """``bitclosure.*``: the run's node/arc/abort/deletion events replayed
    into a fresh kernel, each mutator timed on its own."""
    graph = BitClosureGraph()
    clock = time.perf_counter_ns
    cost = {"add_arc": [0, 0], "contract": [0, 0], "abort": [0, 0]}
    row_bytes_peak = 0

    def timed(kind: str, fn: Callable, *args) -> None:
        start = clock()
        fn(*args)
        cost[kind][0] += clock() - start
        cost[kind][1] += 1

    for index, (kind, payload) in enumerate(events):
        if kind == "delete":
            for txn in payload:
                timed("contract", graph.contract, txn)
        else:
            if isinstance(payload.step, Begin) and payload.accepted:
                graph.add_node(payload.step.txn)
            for tail, head in payload.arcs_added:
                timed("add_arc", graph.add_arc, tail, head)
            for txn in payload.aborted:
                if txn in graph:
                    timed("abort", graph.remove_node_abort, txn)
        if index % 256 == 0:
            row_bytes_peak = max(row_bytes_peak, graph.memory_bytes())
    for kind, metric in (("add_arc", "bitclosure.add_arc_us"),
                         ("contract", "bitclosure.contract_us"),
                         ("abort", "bitclosure.abort_us")):
        total_ns, calls = cost[kind]
        run.metrics[metric] = total_ns / 1e3 / calls if calls else 0.0
    run.metrics["bitclosure.arcs_total"] = cost["add_arc"][1]
    run.metrics["bitclosure.row_bytes_peak"] = row_bytes_peak


def _feed_traced(
    recorder: SpanRecorder, feed: Callable, steps: Sequence[Any], engine,
    every: int = 0, then: Optional[Callable[[], None]] = None,
) -> Tuple[List[Any], float, float]:
    """Feed *steps* through *feed* one by one (calling *then* after every
    *every*-th); returns (results, wall seconds, mean live graph size)."""
    results = []
    live_total = live_samples = 0
    started = time.perf_counter()
    for index, step in enumerate(steps):
        recorder.step_id = index
        results.append(feed(step))
        if every and (index + 1) % every == 0:
            then()
        if index % 16 == 0:
            live_total += _live_size(engine)
            live_samples += 1
    return results, time.perf_counter() - started, live_total / live_samples


def _check_span_accounting(
    run: Run, recorder: SpanRecorder
) -> Dict[str, Dict[str, float]]:
    """Self times must add up to the top-level spans they decompose;
    writes the spans out and returns the per-name totals."""
    totals = recorder.totals()
    top_us = sum(
        (span[2] - span[1]) / 1e3 for span in recorder.spans if span[3] < 0
    )
    self_us = sum(entry["self_us"] for entry in totals.values())
    run.gate(
        "traced: per-layer self times sum to within 10% of the traced "
        "end-to-end spans",
        top_us > 0 and abs(self_us - top_us) <= 0.1 * top_us,
        f"self {self_us:.0f} us vs top-level {top_us:.0f} us",
    )
    run.gate(
        "traced: every span's parent resolves and no self time is negative",
        all(-1 <= span[3] < index for index, span in enumerate(recorder.spans))
        and all(entry["self_us"] >= 0 for entry in totals.values()),
    )
    run.samples["spans"] = {
        "recorded": len(recorder.spans),
        "written": min(len(recorder.spans), SPANS_WRITTEN),
        "top_level_us": top_us,
        "self_us_by_name": {
            name: round(entry["self_us"], 1) for name, entry in totals.items()
        },
    }
    recorder.dump(SPANS_DIR / f"spans-{run.workload}.jsonl")
    return totals


# ---------------------------------------------------------------------------
# Rungs
# ---------------------------------------------------------------------------


def durable_rung(
    run: Run, recorder: SpanRecorder, steps: Sequence[Any], *,
    shards: int, interval: int,
) -> Tuple[float, List[Any]]:
    """``DurableEngine(io=TimedIO)`` over *steps* with a timed explicit
    ``checkpoint()`` every *interval* records; fills ``durability.*``,
    ``io.snapshot_encode_ms``, ``sharding.*`` and the engine-seam
    metrics.  Returns (seconds per step, results)."""
    io = TimedIO(recorder)
    durable = DurableEngine(
        wal_dir=str(run.subdir("ladder") / "durable-traced"), shards=shards,
        checkpoint_interval=0, sync="checkpoint", io=io, **CHEAP_ENGINE,
    )
    inner = durable.engine
    kernel, tally = KernelLog(inner), SweepTally(inner)
    for shard in _shards_of(inner):
        instrument_engine(recorder, shard)
    if shards > 1:
        inner.feed = recorder.wrap("sharding.feed", inner.feed)
    checkpoint = recorder.wrap("durability.checkpoint", durable.checkpoint)
    done = 0
    encode_s: List[float] = []
    replay_s = 0.0

    def checkpoint_now() -> None:
        nonlocal done, replay_s
        checkpoint()
        done += 1
        if done % 4 == 1:
            # Codec replay: what encoding this checkpoint's core costs.
            started = time.perf_counter()
            core = inner.snapshot(include_logs=False)
            encoding = time.perf_counter()
            engine_snapshot_to_json(core, indent=None)
            ended = time.perf_counter()
            encode_s.append(ended - encoding)
            replay_s += ended - started

    try:
        results, wall, resident_mean = _feed_traced(
            recorder, recorder.wrap("durability.feed", durable.feed), steps,
            inner, every=interval, then=checkpoint_now,
        )
        sweeps = (inner.sweeps_run, inner.sweeps_skipped)
    finally:
        durable.close()
    wall -= replay_s  # the codec replay is not part of the rung
    totals = recorder.totals()
    n = len(steps)
    m = run.metrics
    m["durability.self_us_per_step"] = _per(
        totals, "durability.feed", "self_us", n
    )
    m["durability.append_us_per_record"] = _per(
        totals, "io.append_line", "total_us"
    )
    m["durability.checkpoint_ms"] = _per(
        totals, "durability.checkpoint", "total_us", done
    ) / 1e3
    m["durability.checkpoint_write_ms"] = _per(
        totals, "io.write_checkpoint", "total_us", done
    ) / 1e3
    m["io.snapshot_encode_ms"] = (
        statistics.median(encode_s) * 1e3 if encode_s else 0.0
    )
    m["durability.checkpoints_total"] = done
    m["durability.checkpoint_bytes_per_step"] = io.checkpoint_bytes / n
    m["durability.wal_bytes_per_step"] = io.wal_bytes / n
    m["durability.fsyncs_per_step"] = io.fsyncs / n
    # The timed fsyncs are the per-record and directory ones; a checkpoint
    # file's own fsync happens inside write_checkpoint and is only counted.
    timed = [totals[name] for name in ("io.fsync", "io.fsync_dir")
             if name in totals]
    calls = sum(entry["count"] for entry in timed)
    m["durability.fsync_us_per_call"] = (
        sum(entry["total_us"] for entry in timed) / calls if calls else 0.0
    )
    if shards > 1:
        m["sharding.route_us_per_step"] = _per(
            totals, "sharding.feed", "self_us", n
        )
        m["sharding.migrations_total"] = inner.router.migrations
        m["sharding.moved_txns_total"] = inner.router.migrated_txns
    m["engine.sweeps_run"], m["engine.sweeps_skipped"] = sweeps
    engine_metrics(run, totals, tally, results, resident_mean)
    replay_kernel(run, kernel.events)
    return wall / n, results


def durable_rung_untraced(
    run: Run, steps: Sequence[Any], *, shards: int, interval: int
) -> float:
    """The same rung with no proxy installed; seconds per step."""
    engine = build_engine(
        wal_dir=str(run.subdir("ladder") / "durable-plain"), shards=shards,
        checkpoint_interval=interval, sync="checkpoint", **CHEAP_ENGINE,
    )
    try:
        started = time.perf_counter()
        for step in steps:
            engine.feed(step)
        return (time.perf_counter() - started) / len(steps)
    finally:
        engine.close()


async def submit_rung(
    run: Run, steps: Sequence[Any], *, shards: int, interval: int, batch: int
) -> float:
    """``ReproServer.submit`` awaited in this process's loop, *batch*
    steps per call; seconds per step."""
    server = ReproServer()
    server.create_tenant(
        "ladder", wal_dir=str(run.subdir("ladder") / "submit"), shards=shards,
        checkpoint_interval=interval, sync="checkpoint", **CHEAP_ENGINE,
    )
    try:
        started = time.perf_counter()
        for start in range(0, len(steps), batch):
            await server.submit("ladder", list(steps[start:start + batch]))
        return (time.perf_counter() - started) / len(steps)
    finally:
        await server.close()


def replay_wire_codec(run: Run, results: Sequence[Any], tenant: str) -> None:
    """``io.wire_*``: every feed request and response of the run through
    the public step and wire codecs, both directions."""
    clock = time.perf_counter
    started = clock()
    requests = [
        wire_message_to_line({"op": "feed", "tenant": tenant, "id": index,
                              "step": step_to_dict(result.step)})
        for index, result in enumerate(results)
    ]
    responses = [
        wire_message_to_line({"id": index, "ok": True,
                              "result": step_result_to_dict(result)})
        for index, result in enumerate(results)
    ]
    encode = clock() - started
    started = clock()
    for line in requests:
        step_from_dict(wire_message_from_line(line)["step"])
    for line in responses:
        step_result_from_dict(wire_message_from_line(line)["result"])
    decode = clock() - started
    messages = 2 * len(results)
    run.metrics["io.wire_encode_us_per_msg"] = encode / messages * 1e6
    run.metrics["io.wire_decode_us_per_msg"] = decode / messages * 1e6


def replay_wal_codec(run: Run, steps: Sequence[Any]) -> None:
    """``io.wal_*``: every record through the public WAL codec.  (The
    engine writes through a parity-tested private fast path whose cost
    sits in ``durability.self_us_per_step``.)"""
    clock = time.perf_counter
    started = clock()
    lines = [wal_record_to_line(seq + 1, step) for seq, step in enumerate(steps)]
    encode = clock() - started
    started = clock()
    for line in lines:
        wal_record_from_line(line)
    decode = clock() - started
    run.metrics["io.wal_encode_us_per_record"] = encode / len(steps) * 1e6
    run.metrics["io.wal_decode_us_per_record"] = decode / len(steps) * 1e6


def _served_metrics(run: Run, load: workloads.ServedLoad) -> float:
    """``client.*`` and ``server.saturated_total`` from a served load;
    returns the server's CPU seconds per step — the *mean* over the
    post-warm-up windows, because the rungs it is compared with are means
    over the whole stream, checkpoints included."""
    label, q = measure.tail_quantile(len(load.feed_latencies))
    run.metrics["client.feed_p999_ms"] = measure.percentile(
        sorted(load.feed_latencies), q) * 1e3
    run.samples["client.feed_p999_ms"] = {"n": len(load.feed_latencies),
                                          "percentile": label}
    run.metrics["client.cpu_share"] = load.client_cpu_share
    run.metrics["server.saturated_total"] = load.refused
    cpus = load.windows.series(load.steps_per_window)["cpu_us_per_step"]
    return sum(cpus) / len(cpus) / 1e6


async def ping_probe(run: Run, client, server) -> None:
    """``client.ping_rtt_us`` and ``server.wire_us_per_request``: pings
    carry no step and touch no tenant, so the server CPU one costs is the
    floor every request pays — read a line, decode, dispatch, encode,
    write."""
    count = run.scaled(2_000, floor=200)
    rtts = []
    cpu0 = server.cpu_seconds()
    for _ in range(count):
        started = time.perf_counter()
        await client.ping()
        rtts.append(time.perf_counter() - started)
    cpu = server.cpu_seconds() - cpu0
    run.metrics["client.ping_rtt_us"] = statistics.median(rtts[count // 10:]) * 1e6
    run.metrics["server.wire_us_per_request"] = cpu / count * 1e6


def _timed_generation(run: Run, make: Callable[[], List[Any]]) -> List[Any]:
    started = time.perf_counter()
    steps = make()
    run.metrics["workloads.gen_steps_per_s"] = (
        len(steps) / (time.perf_counter() - started)
    )
    return steps


# ---------------------------------------------------------------------------
# The traced workloads
# ---------------------------------------------------------------------------


async def serve_step(run: Run) -> None:
    per_conn = measure.WINDOWS * run.scaled(
        384, multiple=STEP_CHECKPOINT_INTERVAL)
    run.sizes.update(steps_per_connection=per_conn)
    state = await workloads.setup_serve_step(
        run, run.subdir("served"), per_conn)
    try:
        await ping_probe(run, state["clients"][0], state["server"])
        load = await workloads.load_serve_step(state)
        await workloads.check_serve_step(run, state, load)
        served_s_per_step = _served_metrics(run, load)
    finally:
        await workloads.dispose_served(state)

    steps = _timed_generation(run, lambda: banking_steps(
        seed=run.seed * 1000, n_steps=2 * per_conn, n_accounts=512))
    recorder = SpanRecorder()
    traced_s, results = durable_rung(
        run, recorder, steps, shards=1, interval=STEP_CHECKPOINT_INTERVAL)
    plain_s = durable_rung_untraced(
        run, steps, shards=1, interval=STEP_CHECKPOINT_INTERVAL)
    submit_s = await submit_rung(
        run, steps, shards=1, interval=STEP_CHECKPOINT_INTERVAL, batch=1)
    run.metrics["tracing.overhead_ratio"] = plain_s / traced_s
    run.metrics["server.self_us_per_step"] = (submit_s - plain_s) * 1e6
    replay_wire_codec(run, results, "t0")
    replay_wal_codec(run, steps)
    totals = _check_span_accounting(run, recorder)
    engine_us = _per(totals, "engine.feed", "total_us", len(steps))
    run.gate(
        "serve_step: the engine rung and below is < 25% of the served "
        "CPU per step",
        engine_us < 0.25 * served_s_per_step * 1e6,
        f"{engine_us:.1f} us of {served_s_per_step * 1e6:.1f} us",
    )
    run.samples["ladder_us_per_step"] = {
        "served_server_cpu": served_s_per_step * 1e6,
        "submit": submit_s * 1e6,
        "durable": plain_s * 1e6,
        "durable_traced": traced_s * 1e6,
        "engine": engine_us,
    }


async def engine_resident(run: Run) -> None:
    warm = run.scaled(20_000)
    timed = run.scaled(40_000, floor=1_000)
    run.sizes.update(warm_steps=warm, timed_steps=timed)
    steps = _timed_generation(run, lambda: banking_steps(
        seed=run.seed * 1000, n_steps=warm + timed, n_accounts=1024))

    def build() -> Engine:
        return Engine.from_parts(
            create_scheduler(RESIDENT_ENGINE["scheduler"]),
            create_policy(RESIDENT_ENGINE["policy"]),
            sweep_interval=RESIDENT_ENGINE["sweep_interval"],
        )

    plain = build()
    plain.feed_batch(steps[:warm])
    started = time.perf_counter()
    for step in steps[warm:]:
        plain.feed(step)
    plain_s = (time.perf_counter() - started) / timed

    engine = build()
    kernel = KernelLog(engine)
    engine.feed_batch(steps[:warm])
    tally = SweepTally(engine)
    sweeps_before = (engine.sweeps_run, engine.sweeps_skipped)
    recorder = SpanRecorder()
    instrument_engine(recorder, engine)
    results, wall, resident_mean = _feed_traced(
        recorder, engine.feed, steps[warm:], engine)
    run.gate(
        "engine_resident: traced and untraced engines end in the same state",
        engine.snapshot() == plain.snapshot(),
    )
    engine_metrics(run, recorder.totals(), tally, results, resident_mean)
    run.metrics["engine.sweeps_run"] = engine.sweeps_run - sweeps_before[0]
    run.metrics["engine.sweeps_skipped"] = (
        engine.sweeps_skipped - sweeps_before[1]
    )
    replay_kernel(run, kernel.events)
    run.metrics["tracing.overhead_ratio"] = plain_s / (wall / timed)
    totals = _check_span_accounting(run, recorder)
    below = sum(totals[name]["total_us"] for name in
                ("scheduler.feed", "scheduler.delete", "policy.select")
                if name in totals)
    run.gate(
        "engine_resident: scheduler+policy spans are >= 80% of the engine "
        "span and no io/server/durability span exists",
        below >= 0.8 * totals["engine.feed"]["total_us"]
        and not any(name.split(".")[0] in ("io", "server", "durability")
                    for name in totals),
        f"{below / totals['engine.feed']['total_us']:.1%}",
    )


async def serve_bulk_read(run: Run) -> None:
    n_steps = (run.scaled(4, multiple=BULK_CHECKPOINT_INTERVAL // BULK_BATCH)
               * measure.WINDOWS * BULK_BATCH)
    n_audits = run.scaled(600, floor=100)
    run.sizes.update(steps=n_steps, idle_audits=n_audits)
    state = await workloads.setup_serve_bulk_read(
        run, run.subdir("served"), n_steps)
    try:
        await ping_probe(run, state["clients"][0], state["server"])
        load = await workloads.load_serve_bulk_read(run, state)
        oracle = await workloads.check_serve_bulk_read(run, state, load)
        served_s_per_step = _served_metrics(run, load)
        busy = sorted(latency for _t, _s, latency in load.audits)
        label, q = measure.tail_quantile(len(busy), cap=0.99)
        run.metrics["client.audit_p99_ms"] = measure.percentile(busy, q) * 1e3
        run.samples["client.audit_p99_ms"] = {"n": len(busy),
                                              "percentile": label}
        # The same reads with the writer idle: the gap to the busy
        # median is time spent waiting behind the write drain.
        idle = await workloads.idle_audits(
            run, state["clients"][1], "bulk",
            workloads.begun_ids(state["steps"]), n_audits, oracle)
        run.metrics["server.audit_idle_p50_ms"] = statistics.median(idle) * 1e3
        run.samples["server.audit_idle_p50_ms"] = {
            "n": len(idle),
            "busy_p50_ms": measure.percentile(busy, 0.5) * 1e3,
        }
    finally:
        await workloads.dispose_served(state)

    steps = _timed_generation(run, lambda: banking_steps(
        seed=run.seed * 1000, n_steps=n_steps, n_accounts=1024,
        partitions=BULK_SHARDS, cross_fraction=0.05))
    recorder = SpanRecorder()
    traced_s, _results = durable_rung(
        run, recorder, steps, shards=BULK_SHARDS,
        interval=BULK_CHECKPOINT_INTERVAL)
    plain_s = durable_rung_untraced(
        run, steps, shards=BULK_SHARDS, interval=BULK_CHECKPOINT_INTERVAL)
    submit_s = await submit_rung(
        run, steps, shards=BULK_SHARDS, interval=BULK_CHECKPOINT_INTERVAL,
        batch=BULK_BATCH)
    run.metrics["tracing.overhead_ratio"] = plain_s / traced_s
    run.metrics["server.self_us_per_step"] = (submit_s - plain_s) * 1e6
    replay_wal_codec(run, steps)
    _check_span_accounting(run, recorder)
    run.samples["ladder_us_per_step"] = {
        "served_server_cpu": served_s_per_step * 1e6,
        "submit": submit_s * 1e6,
        "durable": plain_s * 1e6,
        "durable_traced": traced_s * 1e6,
    }


async def recover_replay(run: Run) -> None:
    chain_steps = run.scaled(20_000, floor=400)
    tail_steps = run.scaled(30_000, floor=600)
    live_steps = run.scaled(8_000, floor=320)
    run.sizes.update(chain_steps=chain_steps, tail_steps=tail_steps,
                     live_steps=live_steps)
    directory = run.subdir("ladder")
    steps = _timed_generation(run, lambda: banking_steps(
        seed=run.seed * 1000, n_steps=tail_steps, n_accounts=512))
    chain_dir, tail_dir = workloads.build_crashed_dirs(
        directory, steps, chain_steps, tail_steps)

    # recover() over the chain: links loaded, steps replayed, cost per link
    copy = copy_wal_dir(chain_dir, directory / "chain-copy")
    started = time.perf_counter()
    engine = recover(copy)
    seconds = time.perf_counter() - started
    info = engine.recovery_info
    engine.simulate_crash()
    shutil.rmtree(copy)
    run.metrics["durability.chain_links_loaded"] = info.checkpoints_loaded
    run.metrics["durability.replayed_steps"] = info.replayed_steps
    run.metrics["durability.recover_ms_per_link"] = (
        seconds * 1e3 / max(1, info.checkpoints_loaded)
    )
    run.gate(
        "recover_replay: chain recovery replays at most one checkpoint "
        "interval of WAL",
        info.replayed_steps <= CHAIN_CHECKPOINT_INTERVAL,
    )
    replay_wal_codec(run, steps)

    # A cold follower over the WAL-only log: cost per record polled.
    follower = WalFollower(tail_dir)
    started = time.perf_counter()
    applied = follower.poll()
    run.metrics["replication.poll_us_per_record"] = (
        (time.perf_counter() - started) / max(1, applied) * 1e6
    )
    follower.close()
    run.gate("recover_replay: the cold follower applied the whole WAL",
             applied == tail_steps, f"{applied} of {tail_steps}")

    # Promotion of a caught-up follower on a fresh copy of the dead
    # primary's directory.
    copy = copy_wal_dir(tail_dir, directory / "tail-copy")
    follower = WalFollower(copy)
    follower.poll()
    started = time.perf_counter()
    promoted = follower.promote()
    run.metrics["replication.promote_ms"] = (
        (time.perf_counter() - started) * 1e3
    )
    run.gate("recover_replay: the promoted engine holds the whole log",
             promoted.seq == tail_steps)
    promoted.simulate_crash()
    shutil.rmtree(copy)

    # Lag beside a live writer: 16-step chunks, follower polled after
    # each; lag is read (with a probe) before the poll.
    writer = build_engine(
        wal_dir=str(directory / "live"),
        checkpoint_interval=CHAIN_CHECKPOINT_INTERVAL, sync="checkpoint",
        **CHEAP_ENGINE)
    follower = WalFollower(directory / "live")
    lags = []
    try:
        for start in range(0, live_steps, 16):
            for step in steps[start:start + 16]:
                writer.feed(step)
            lags.append(follower.lag(probe=True).lag_seq)
            follower.poll()
        for _ in range(3):  # an adoption deferred by the last checkpoint
            follower.poll()
        run.gate("recover_replay: the live follower caught up",
                 follower.wal_seq == writer.seq)
    finally:
        follower.close()
        writer.close()
    label, q = measure.tail_quantile(len(lags), cap=0.99)
    run.metrics["replication.lag_records_p99"] = measure.percentile(
        sorted(lags), q)
    run.samples["replication.lag_records_p99"] = {"n": len(lags),
                                                  "percentile": label}
    # No proxy sits on the replay path, so nothing is slowed down.
    run.metrics["tracing.overhead_ratio"] = 1.0


TRACED = {
    "serve_step": serve_step,
    "engine_resident": engine_resident,
    "serve_bulk_read": serve_bulk_read,
    "recover_replay": recover_replay,
}
