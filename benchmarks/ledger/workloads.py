"""The four ledger workloads, untraced: end-to-end metrics and gates.

Every workload follows one life cycle — set up (three times, median
reported), load, read back, crash, recover, follow — so every end-to-end
metric has a reading on every workload; what differs is the load phase
and therefore which layers the numbers are made of.  README.md has the
per-workload reading of each metric.

Load shape: one server subprocess, one client process (this one), at most
two connections, closed loop — a transaction manager waits for each
decision before it sends that transaction's next step.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import measure
from harness import (
    REQUEST_DEADLINE_S,
    Run,
    ServerProcess,
    copy_wal_dir,
    count_mismatches,
    repeated_setup,
    snapshot_text,
)
from streams import banking_steps

from repro import WalFollower, build_engine, recover
from repro.client import AsyncServingClient
from repro.errors import ServingError
from repro.model.steps import Begin

#: Cheap steps, resident graph ~20: wire, queue and WAL dominate.  Swept
#: every 32 steps, not 4: at 4 one eager-c1 engine retains 3 or 4
#: completed transactions at its peak, and a count that small cannot be
#: compared across seeds (6, 7 and 8 in equal parts is a 29% spread); at
#: 32 the peak is 12 for nearly every seed.
CHEAP_ENGINE = dict(
    scheduler="conflict-graph", policy="eager-c1", sweep_interval=32
)
#: ~850 resident transactions swept every 4 steps: policy and closure
#: kernel dominate.
RESIDENT_ENGINE = dict(
    scheduler="conflict-graph", policy="noncurrent", sweep_interval=4
)
#: serve_step checkpoints every 64 records, the library default.  A
#: checkpoint stalls the single-threaded server for ~4 ms, which the
#: tenant's own request and often the other connection's pay: 2-3% of
#: feeds, so ``feed_p99_ms`` sits on the checkpoint plateau.  (At 256 only
#: ~0.8% of feeds pay and p99 flips between 1 ms and 6 ms run to run.)
STEP_CHECKPOINT_INTERVAL = 64
BULK_CHECKPOINT_INTERVAL = 1024
BULK_BATCH = 256
BULK_SHARDS = 4
RESIDENT_CHUNK = 16


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def begun_ids(steps: Sequence[Any]) -> List[str]:
    """Transaction ids in BEGIN order."""
    return [step.txn for step in steps if isinstance(step, Begin)]


def _audit_id(begun: Sequence[str], seen: int, index: int,
              rng: random.Random) -> str:
    """Every fourth lookup asks about one of the 64 most recent of the
    *seen* transactions begun so far; the rest ask about the older half
    (long completed, mostly deleted)."""
    if index % 4 == 3:
        return begun[rng.randrange(max(0, seen - 64), seen)]
    return begun[rng.randrange(max(1, seen // 2))]


def _audit_ids(begun: Sequence[str], count: int, rng: random.Random) -> List[str]:
    return [_audit_id(begun, len(begun), index, rng) for index in range(count)]


def _latency_metrics(run: Run, latencies_s: Sequence[float]) -> None:
    """``feed_p50_ms`` and ``feed_p99_ms`` from the post-warm-up samples.
    The tail is the highest percentile <= p99 the sample supports (ten
    samples beyond it), and which one that was is recorded."""
    count = len(latencies_s)
    value, windows = measure.windowed_percentile(latencies_s, 0.5)
    run.metrics["feed_p50_ms"] = value * 1e3
    run.samples["feed_p50_ms"] = {"n": count, "windows": windows}
    label, q = measure.tail_quantile(count, cap=0.99)
    value, windows = measure.windowed_percentile(latencies_s, q)
    run.metrics["feed_p99_ms"] = value * 1e3
    run.samples["feed_p99_ms"] = {"n": count, "percentile": label,
                                  "windows": windows}


def _audit_metric(run: Run, latencies_s: Sequence[float]) -> None:
    value, windows = measure.windowed_percentile(latencies_s, 0.5)
    run.metrics["audit_p50_ms"] = value * 1e3
    run.samples["audit_p50_ms"] = {"n": len(latencies_s), "windows": windows}


def _timed_audits(engine, ids: Sequence[str]) -> Tuple[List[Any], List[float]]:
    """In-process ``engine.audit`` of every id, each call timed."""
    records, latencies = [], []
    clock = time.perf_counter
    for txn in ids:
        started = clock()
        record = engine.audit(txn)
        latencies.append(clock() - started)
        records.append(record)
    return records, latencies


def _window_metrics(run: Run, windows: measure.Windows, per_window: int) -> None:
    series = windows.series(per_window)
    run.windows.update(series)
    # The fastest window is the least disturbed one (see measure.py).
    run.metrics["steps_per_s"] = max(series["steps_per_s"])
    run.metrics["cpu_us_per_step"] = min(series["cpu_us_per_step"])
    run.samples["steps_per_s"] = run.samples["cpu_us_per_step"] = {
        "windows": len(series["steps_per_s"]),
        "steps_per_window": per_window,
    }


def _recover_once(
    run: Run,
    source,
    expected: str,
    label: str,
    after: Optional[Callable[[Any], None]] = None,
) -> Tuple[float, float, Any]:
    """One timed ``recover()`` of a fresh copy of *source*; returns
    (wall s, cpu s, RecoveryInfo).  The copy is made before the clock
    starts and the byte comparison runs after it stops."""
    copy = copy_wal_dir(source, run.workdir / "recover-copy")
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    engine = recover(copy)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    try:
        run.gate(
            f"{label}: recover() is byte-identical to the uninterrupted oracle",
            snapshot_text(engine) == expected,
        )
        if after is not None:
            after(engine)
        return wall, cpu, engine.recovery_info
    finally:
        engine.simulate_crash()
        shutil.rmtree(copy)


def _follow_once(run: Run, source, expected: str, label: str) -> Tuple[float, float]:
    """One timed cold ``WalFollower(source).poll()`` (no lock, no copy)."""
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    follower = WalFollower(source)
    follower.poll()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    try:
        run.gate(
            f"{label}: follower is byte-identical to the uninterrupted oracle",
            snapshot_text(follower.engine) == expected,
        )
    finally:
        follower.close()
    return wall, cpu


def _crash_metrics(
    run: Run,
    *,
    wal_dirs: Sequence[Any],
    written_steps: int,
    recover_dir,
    expected: str,
    history_steps: int,
    repeats: int,
) -> None:
    """The crash epilogue shared by the three feed workloads.

    ``recover_s`` is the fastest of *repeats* recoveries of the crashed
    directory; ``replay_steps_per_s`` and ``follower_steps_per_s`` are the
    history it holds divided by the fastest ``recover()`` and cold
    follower poll — on these workloads the same directory serves all
    three (recover_replay builds a WAL-only directory for the last two).
    """
    run.metrics["wal_dir_bytes_per_step"] = (
        sum(measure.dir_bytes(path) for path in wal_dirs) / written_steps
    )
    recoveries = [
        _recover_once(run, recover_dir, expected, run.workload)[0]
        for _ in range(repeats)
    ]
    follows = [
        _follow_once(run, recover_dir, expected, run.workload)[0]
        for _ in range(repeats)
    ]
    run.metrics["recover_s"] = min(recoveries)
    run.metrics["replay_steps_per_s"] = history_steps / min(recoveries)
    run.metrics["follower_steps_per_s"] = history_steps / min(follows)
    run.samples["recover_s"] = run.samples["replay_steps_per_s"] = repeats
    run.samples["follower_steps_per_s"] = repeats
    run.windows["recover_s"] = recoveries
    run.windows["follow_s"] = follows


async def _connect(server: ServerProcess) -> AsyncServingClient:
    return await AsyncServingClient.connect(
        server.host, server.port, timeout=REQUEST_DEADLINE_S
    )


async def dispose_served(state: Dict[str, Any]) -> None:
    for client in state["clients"]:
        await client.close()
    state["server"].kill()
    shutil.rmtree(state["dir"], ignore_errors=True)


# ---------------------------------------------------------------------------
# serve_step
# ---------------------------------------------------------------------------


@dataclass
class ServedLoad:
    """What one closed-loop load phase against the server observed."""

    windows: measure.Windows
    steps_per_window: int
    #: per-request latencies, first window's dropped
    feed_latencies: List[float]
    #: what the server answered, in send order (``None`` = refused)
    answers: List[Any]
    #: (txn, status or None, latency) per audit issued beside the load
    audits: List[Tuple[str, Optional[str], float]]
    #: saturated / degraded / timed-out / dropped requests
    refused: int
    #: load generator CPU / wall over the phase: near 1.0 means the
    #: generator, not the server, is the bound
    client_cpu_share: float


async def setup_serve_step(
    run: Run, directory, per_conn: int
) -> Dict[str, Any]:
    """Two seeded streams, one server, two connections, two durable
    tenants."""
    streams = [
        banking_steps(seed=run.seed * 1000 + k, n_steps=per_conn,
                      n_accounts=512)
        for k in range(2)
    ]
    server = ServerProcess(directory / "server.log").start()
    state: Dict[str, Any] = {
        "dir": directory, "server": server, "clients": [],
        "streams": streams,
    }
    try:
        for k in range(2):
            client = await _connect(server)
            state["clients"].append(client)
            await client.create_tenant(
                f"t{k}", wal_dir=str(directory / f"t{k}"),
                checkpoint_interval=STEP_CHECKPOINT_INTERVAL,
                sync="checkpoint", **CHEAP_ENGINE,
            )
    except BaseException:
        await dispose_served(state)
        raise
    return state


async def load_serve_step(state: Dict[str, Any]) -> ServedLoad:
    """Both connections feed their stream one step at a time, each
    waiting for the decision before sending the next step."""
    server: ServerProcess = state["server"]
    clients: List[AsyncServingClient] = state["clients"]
    streams: List[List[Any]] = state["streams"]
    per_window = sum(len(stream) for stream in streams) // measure.WINDOWS
    windows = measure.Windows(server.cpu_seconds)
    latencies: List[float] = []
    warm_cut: List[int] = []
    answers: List[List[Optional[str]]] = [[] for _ in streams]
    refused = 0
    done = 0

    async def drive(k: int) -> None:
        nonlocal refused, done
        client, name, mine = clients[k], f"t{k}", answers[k]
        for step in streams[k]:
            started = time.perf_counter()
            try:
                result = await client.feed(name, step)
            except ServingError:
                refused += 1
                mine.append(None)
            else:
                mine.append(result.decision.value)
            latencies.append(time.perf_counter() - started)
            done += 1
            if done % per_window == 0:
                windows.mark()
                if not warm_cut:
                    warm_cut.append(len(latencies))

    cpu0, wall0 = time.process_time(), time.perf_counter()
    windows.mark()
    await asyncio.gather(*(drive(k) for k in range(len(streams))))
    share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    return ServedLoad(windows, per_window, latencies[warm_cut[0]:], answers,
                      [], refused, share)


async def check_serve_step(
    run: Run, state: Dict[str, Any], load: ServedLoad
) -> List[Any]:
    """Gate the served answers against in-process oracles fed the same
    streams; returns the oracles."""
    oracles = []
    resident_peak = 0
    for k, stream in enumerate(state["streams"]):
        oracle = build_engine(**CHEAP_ENGINE)
        batch = oracle.feed_batch(stream)
        oracles.append(oracle)
        expected = [result.decision.value for result in batch.results]
        run.ops(len(stream), count_mismatches(load.answers[k], expected))
        stats = await state["clients"][k].query(f"t{k}", "stats")
        run.gate(
            "serve_step: served deleted_ids equal the in-process oracle's",
            stats["deleted_ids"] == oracle.stats.deleted_ids,
        )
        run.gate(
            "serve_step: served steps_fed equals the in-process oracle's",
            stats["steps_fed"] == oracle.stats.steps_fed == len(stream),
        )
        run.gate(
            "serve_step: served resident peak equals the in-process oracle's",
            stats["peak_retained_completed"]
            == oracle.stats.peak_retained_completed,
        )
        resident_peak += stats["peak_retained_completed"]
    run.gate("serve_step: no saturated/degraded/timeout responses",
             load.refused == 0, f"{load.refused} refused")
    run.metrics["resident_peak"] = resident_peak
    return oracles


async def idle_audits(
    run: Run, client: AsyncServingClient, tenant: str, begun: Sequence[str],
    count: int, oracle,
) -> List[float]:
    """*count* audit lookups against an idle tenant, each compared with
    the oracle's record; returns the latencies (first tenth dropped)."""
    rng = random.Random(run.seed + 7)
    latencies: List[float] = []
    wrong = 0
    for txn in _audit_ids(begun, count, rng):
        started = time.perf_counter()
        try:
            record = await client.audit(tenant, txn)
        except ServingError:
            record = None
        latencies.append(time.perf_counter() - started)
        wrong += record != oracle.audit(txn).as_dict()
    run.ops(count, wrong)
    return latencies[count // 10:]


async def serve_step(run: Run) -> None:
    """Two connections, each single-step ``feed`` to its own durable
    tenant.  Cheap engine steps, so ``client``/``io`` codec, ``server``
    queue and ``durability`` WAL+checkpoint do most of the work."""
    # A window is a whole number of checkpoint intervals on each tenant,
    # so every window pays for the same number of checkpoints.
    per_conn = measure.WINDOWS * run.scaled(
        960, multiple=STEP_CHECKPOINT_INTERVAL)
    n_audits = run.scaled(3_000, floor=100)
    run.sizes.update(connections=2, steps_per_connection=per_conn,
                     audits=n_audits)

    async def make(attempt: int) -> Dict[str, Any]:
        return await setup_serve_step(
            run, run.subdir(f"serve_step-{attempt}"), per_conn
        )

    state = await repeated_setup(run, make, dispose_served)
    try:
        load = await load_serve_step(state)
        _window_metrics(run, load.windows, load.steps_per_window)
        _latency_metrics(run, load.feed_latencies)
        oracles = await check_serve_step(run, state, load)
        # Read back: audit lookups against tenant t0 on the now idle server.
        _audit_metric(run, await idle_audits(
            run, state["clients"][0], "t0", begun_ids(state["streams"][0]),
            n_audits, oracles[0],
        ))
        # Crash: SIGKILL, then recover and follow what the server wrote.
        server: ServerProcess = state["server"]
        run.metrics["rss_peak_mb"] = server.hwm_mb()
        server.kill()
        _crash_metrics(
            run,
            wal_dirs=[state["dir"] / "t0", state["dir"] / "t1"],
            written_steps=2 * per_conn,
            recover_dir=state["dir"] / "t0",
            expected=snapshot_text(oracles[0]),
            history_steps=per_conn,
            repeats=5,
        )
    finally:
        await dispose_served(state)


# ---------------------------------------------------------------------------
# engine_resident
# ---------------------------------------------------------------------------


async def engine_resident(run: Run) -> None:
    """In-process ``Engine.feed_batch`` with ~850 resident transactions
    swept every 4 steps: ``core.policies``, ``core.reduced_graph``,
    ``graphs.bitclosure`` and ``scheduler`` do nearly all the work and
    ``io``/``server``/``durability`` none — the control workload for any
    wire or WAL change."""
    warm = run.scaled(20_000, multiple=RESIDENT_CHUNK)
    per_window = run.scaled(6_000, multiple=RESIDENT_CHUNK)
    timed = per_window * measure.WINDOWS
    crash_steps = run.scaled(6_000, floor=200)
    n_audits = run.scaled(20_000, floor=1_000)
    run.sizes.update(warm_steps=warm, timed_steps=timed,
                     crash_steps=crash_steps, audits=n_audits)

    async def make(_attempt: int) -> Dict[str, Any]:
        return {
            "steps": banking_steps(seed=run.seed * 1000, n_steps=warm + timed,
                                   n_accounts=1024),
            "engine": build_engine(**RESIDENT_ENGINE),
        }

    async def dispose(_state: Dict[str, Any]) -> None:
        return None

    state = await repeated_setup(run, make, dispose)
    steps: List[Any] = state["steps"]
    engine = state["engine"]

    # The graph fills during the first `warm` steps; they are not timed.
    decisions = [
        result.decision.value
        for result in engine.feed_batch(steps[:warm]).results
    ]
    windows = measure.Windows(time.process_time)
    latencies: List[float] = []
    windows.mark()
    position = warm
    for _window in range(measure.WINDOWS):
        for _chunk in range(per_window // RESIDENT_CHUNK):
            chunk = steps[position:position + RESIDENT_CHUNK]
            position += RESIDENT_CHUNK
            started = time.perf_counter()
            batch = engine.feed_batch(chunk)
            latencies.append(time.perf_counter() - started)
            decisions.extend(r.decision.value for r in batch.results)
        windows.mark()
    run.metrics["rss_peak_mb"] = measure.proc_hwm_mb(os.getpid())
    _window_metrics(run, windows, per_window)
    _latency_metrics(run, latencies[per_window // RESIDENT_CHUNK:])
    run.metrics["resident_peak"] = engine.stats.peak_retained_completed

    # Oracle: a different deletion policy over the same stream.  A safe
    # deletion never changes a scheduler decision (the paper's criterion),
    # so noncurrent and eager-c1 must agree step for step.
    oracle = build_engine(**CHEAP_ENGINE)
    expected = [r.decision.value for r in oracle.feed_batch(steps).results]
    run.ops(len(steps), count_mismatches(decisions, expected))
    run.gate(
        "engine_resident: aborted set equals the eager-c1 oracle's",
        set(engine.aborted) == set(oracle.aborted),
    )

    # Read back: in-process audits, checked against the engine's own
    # live/deleted sets and the oracle's aborted set.
    rng = random.Random(run.seed + 7)
    ids = _audit_ids(begun_ids(steps), n_audits, rng)
    live = engine.live_transactions()
    deleted = engine.deleted_transactions()
    aborted = set(oracle.aborted)
    records, audit_latencies = _timed_audits(engine, ids)
    wrong = 0
    for record in records:
        want = ("live" if record.txn in live else
                "deleted" if record.txn in deleted else
                "aborted" if record.txn in aborted else "unknown")
        wrong += record.status != want
    run.ops(n_audits, wrong)
    _audit_metric(run, audit_latencies)

    # Crash: this engine has no WAL of its own, so the crash epilogue
    # logs the head of the same stream WAL-only under the same engine
    # configuration — replay here is engine-bound, the opposite regime
    # from recover_replay's cheap steps.
    wal_dir = run.subdir("engine_resident") / "wal"
    durable = build_engine(wal_dir=str(wal_dir), checkpoint_interval=0,
                           **RESIDENT_ENGINE)
    durable.feed_batch(steps[:crash_steps])
    durable.simulate_crash()
    twin = build_engine(**RESIDENT_ENGINE)
    twin.feed_batch(steps[:crash_steps])
    _crash_metrics(
        run,
        wal_dirs=[wal_dir],
        written_steps=crash_steps,
        recover_dir=wal_dir,
        expected=snapshot_text(twin),
        history_steps=crash_steps,
        repeats=5,
    )


# ---------------------------------------------------------------------------
# serve_bulk_read
# ---------------------------------------------------------------------------


async def setup_serve_bulk_read(
    run: Run, directory, n_steps: int
) -> Dict[str, Any]:
    """One partitioned stream, one server, a writer and a reader
    connection, one durable 4-shard tenant."""
    steps = banking_steps(
        seed=run.seed * 1000, n_steps=n_steps, n_accounts=1024,
        partitions=BULK_SHARDS, cross_fraction=0.05,
    )
    server = ServerProcess(directory / "server.log").start()
    state: Dict[str, Any] = {
        "dir": directory, "server": server, "clients": [], "steps": steps,
    }
    try:
        state["clients"] = [await _connect(server), await _connect(server)]
        await state["clients"][0].create_tenant(
            "bulk", wal_dir=str(directory / "bulk"), shards=BULK_SHARDS,
            checkpoint_interval=BULK_CHECKPOINT_INTERVAL,
            sync="checkpoint", **CHEAP_ENGINE,
        )
    except BaseException:
        await dispose_served(state)
        raise
    return state


async def load_serve_bulk_read(run: Run, state: Dict[str, Any]) -> ServedLoad:
    """The writer sends ``feed_batch(256)`` back to back; the reader
    audits the same tenant in its own closed loop until the writer is
    done."""
    server: ServerProcess = state["server"]
    writer_client, reader_client = state["clients"]
    steps: List[Any] = state["steps"]
    n_batches = len(steps) // BULK_BATCH
    batches_per_window = n_batches // measure.WINDOWS
    begun = begun_ids(steps)
    windows = measure.Windows(server.cpu_seconds)
    batch_latencies: List[float] = []
    responses: List[Optional[Dict[str, Any]]] = []
    audits: List[Tuple[str, Optional[str], float]] = []
    refused = 0
    fed = 0
    loading = True

    async def write() -> None:
        nonlocal refused, fed, loading
        try:
            for index in range(n_batches):
                chunk = steps[index * BULK_BATCH:(index + 1) * BULK_BATCH]
                started = time.perf_counter()
                try:
                    response = await writer_client.feed_batch("bulk", chunk)
                except ServingError:
                    refused += 1
                    response = None
                batch_latencies.append(time.perf_counter() - started)
                responses.append(response)
                fed += len(chunk)
                if (index + 1) % batches_per_window == 0:
                    windows.mark()
        finally:
            loading = False

    async def read() -> None:
        nonlocal refused
        rng = random.Random(run.seed + 7)
        while loading:
            # ~1 BEGIN per 3.7 steps: how many ids the writer has begun
            seen = max(1, fed * len(begun) // len(steps))
            txn = _audit_id(begun, seen, len(audits), rng)
            started = time.perf_counter()
            try:
                status = (await reader_client.audit("bulk", txn))["status"]
            except ServingError:
                refused += 1
                status = None
            audits.append((txn, status, time.perf_counter() - started))

    cpu0, wall0 = time.process_time(), time.perf_counter()
    windows.mark()
    await asyncio.gather(write(), read())
    share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    return ServedLoad(
        windows, batches_per_window * BULK_BATCH,
        batch_latencies[batches_per_window:], responses,
        audits[len(audits) // measure.WINDOWS:], refused, share,
    )


#: Statuses an audit may report *before* the final state is reached, per
#: final status: a transaction is unknown, then live, then at most one of
#: deleted/aborted.
_AUDIT_PRECURSORS = {
    "unknown": {"unknown"},
    "live": {"unknown", "live"},
    "deleted": {"unknown", "live", "deleted"},
    "aborted": {"unknown", "live", "aborted"},
}


async def check_serve_bulk_read(
    run: Run, state: Dict[str, Any], load: ServedLoad
):
    """Gate the served answers against the in-process sharded twin, batch
    by batch; returns the twin."""
    steps: List[Any] = state["steps"]
    oracle = build_engine(shards=BULK_SHARDS, **CHEAP_ENGINE)
    wrong_batches = 0
    for index, response in enumerate(load.answers):
        batch = oracle.feed_batch(
            steps[index * BULK_BATCH:(index + 1) * BULK_BATCH]
        )
        want = {
            "count": batch.steps_fed,
            "accepted": batch.accepted,
            "rejected": batch.rejected,
            "aborted": sorted(set(batch.aborted)),
            "committed": sorted(set(batch.committed)),
        }
        got = None if response is None else {
            key: response.get(key) for key in want
        }
        wrong_batches += got != want
    run.ops(len(load.answers), wrong_batches)
    stats = await state["clients"][0].query("bulk", "stats")
    run.gate(
        "serve_bulk_read: sharded tenant deletes the same ids, in the same "
        "order, as its in-process twin",
        stats["deleted_ids"] == oracle.stats.deleted_ids,
    )
    run.gate(
        "serve_bulk_read: served steps_fed equals the in-process twin's",
        stats["steps_fed"] == oracle.stats.steps_fed == len(steps),
    )
    run.gate(
        "serve_bulk_read: served resident peak equals the in-process twin's",
        stats["peak_retained_completed"]
        == oracle.stats.peak_retained_completed,
    )
    run.gate("serve_bulk_read: no saturated/degraded/timeout responses",
             load.refused == 0, f"{load.refused} refused")
    run.metrics["resident_peak"] = stats["peak_retained_completed"]
    # A read races the writer, so it is checked for *consistency* with
    # the final state: it may lag it, never contradict it.
    wrong_audits = sum(
        1 for txn, status, _latency in load.audits
        if status not in _AUDIT_PRECURSORS[oracle.audit(txn).status]
    )
    run.ops(len(load.audits), wrong_audits)
    run.gate("serve_bulk_read: reads were served beside the writes",
             len(load.audits) >= 20, f"{len(load.audits)} audits")
    return oracle


async def serve_bulk_read(run: Run) -> None:
    """Connection A bulk-loads ``feed_batch(256)`` into one durable
    sharded tenant while connection B audits the same tenant the whole
    time: the ``server``/``durability`` layers of serve_step used
    differently (big batches, per-shard WAL streams, the ``sharding``
    router, reads beside writes)."""
    # A window is a whole number of checkpoint intervals, so every window
    # pays for the same number of checkpoints.
    batches_per_checkpoint = BULK_CHECKPOINT_INTERVAL // BULK_BATCH
    n_steps = (run.scaled(16, multiple=batches_per_checkpoint)
               * measure.WINDOWS * BULK_BATCH)
    run.sizes.update(steps=n_steps, batch=BULK_BATCH, shards=BULK_SHARDS)

    async def make(attempt: int) -> Dict[str, Any]:
        return await setup_serve_bulk_read(
            run, run.subdir(f"serve_bulk_read-{attempt}"), n_steps
        )

    state = await repeated_setup(run, make, dispose_served)
    try:
        load = await load_serve_bulk_read(run, state)
        _window_metrics(run, load.windows, load.steps_per_window)
        _latency_metrics(run, load.feed_latencies)
        _audit_metric(run, [latency for _t, _s, latency in load.audits])
        oracle = await check_serve_bulk_read(run, state, load)
        server: ServerProcess = state["server"]
        run.metrics["rss_peak_mb"] = server.hwm_mb()
        server.kill()
        _crash_metrics(
            run,
            wal_dirs=[state["dir"] / "bulk"],
            written_steps=n_steps,
            recover_dir=state["dir"] / "bulk",
            expected=snapshot_text(oracle),
            history_steps=n_steps,
            repeats=2,
        )
    finally:
        await dispose_served(state)


# ---------------------------------------------------------------------------
# recover_replay
# ---------------------------------------------------------------------------

CHAIN_CHECKPOINT_INTERVAL = 64
CHAIN_REPEATS = 7
TAIL_REPEATS = 4


def build_crashed_dirs(
    directory, steps: Sequence[Any], chain_steps: int, tail_steps: int
) -> Tuple[Any, Any]:
    """Two crashed ``wal_dir``s from one stream: **chain** (a checkpoint
    every 64 records, so a long delta chain and a short WAL tail) and
    **tail** (no checkpoints, WAL only)."""
    chain_dir, tail_dir = directory / "chain", directory / "tail"
    for path, count, interval in (
        (chain_dir, chain_steps, CHAIN_CHECKPOINT_INTERVAL),
        (tail_dir, tail_steps, 0),
    ):
        engine = build_engine(wal_dir=str(path), checkpoint_interval=interval,
                              sync="checkpoint", **CHEAP_ENGINE)
        engine.feed_batch(steps[:count])
        engine.simulate_crash()
    return chain_dir, tail_dir


async def recover_replay(run: Run) -> None:
    """``recover()`` of a long checkpoint chain, ``recover()`` and a cold
    ``WalFollower`` over a WAL-only directory, and the first writes after
    each recovery.  Recovery is O(history) today and the three entry
    points share one replay path; nothing else exercises them."""
    chain_steps = run.scaled(20_000, floor=400)
    tail_steps = run.scaled(30_000, floor=600)
    resume_steps = run.scaled(2_000, floor=100)
    n_audits = run.scaled(400, floor=50)
    run.sizes.update(chain_steps=chain_steps, tail_steps=tail_steps,
                     resume_steps=resume_steps,
                     chain_checkpoint_interval=CHAIN_CHECKPOINT_INTERVAL)
    n_steps = max(chain_steps + resume_steps, tail_steps)

    async def make(attempt: int) -> Dict[str, Any]:
        directory = run.subdir(f"recover_replay-{attempt}")
        steps = banking_steps(seed=run.seed * 1000, n_steps=n_steps,
                              n_accounts=512)
        chain_dir, tail_dir = build_crashed_dirs(
            directory, steps, chain_steps, tail_steps
        )
        return {"dir": directory, "steps": steps, "chain": chain_dir,
                "tail": tail_dir}

    async def dispose(state: Dict[str, Any]) -> None:
        shutil.rmtree(state["dir"], ignore_errors=True)

    state = await repeated_setup(run, make, dispose)
    steps: List[Any] = state["steps"]

    # The uninterrupted oracle, snapshotted at the three cut points.
    oracle = build_engine(**CHEAP_ENGINE)
    cuts = sorted({chain_steps, chain_steps + resume_steps, tail_steps})
    texts: Dict[int, str] = {}
    resumed_audits: Dict[str, Any] = {}
    decisions: List[str] = []
    position = 0
    for cut in cuts:
        batch = oracle.feed_batch(steps[position:cut])
        decisions.extend(r.decision.value for r in batch.results)
        position = cut
        texts[cut] = snapshot_text(oracle)
        if cut == chain_steps + resume_steps:
            resumed_audits = {
                txn: oracle.audit(txn) for txn in begun_ids(steps[:cut])
            }
    resume = steps[chain_steps:chain_steps + resume_steps]
    resume_expected = decisions[chain_steps:chain_steps + resume_steps]
    rng = random.Random(run.seed + 7)
    audit_ids = _audit_ids(begun_ids(steps[:chain_steps + resume_steps]),
                           n_audits, rng)

    feed_latencies: List[float] = []
    audit_latencies: List[float] = []
    resume_times: List[Tuple[float, float]] = []
    resident_peaks: List[int] = []

    def first_writes(engine) -> None:
        """The recovered engine must take writes again at once: feed the
        stream's continuation, then audit through it."""
        answers = []
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        for step in resume:
            started = time.perf_counter()
            answers.append(engine.feed(step).decision.value)
            feed_latencies.append(time.perf_counter() - started)
        resume_times.append((time.perf_counter() - wall0,
                             time.process_time() - cpu0))
        run.ops(len(resume), count_mismatches(answers, resume_expected))
        records, latencies = _timed_audits(engine, audit_ids)
        audit_latencies.extend(latencies)
        # accepted_at/deleted_at predate the restore and read None on a
        # recovered engine (by contract); status and state must match.
        wrong = sum(
            1 for record in records
            if (record.status, record.state) != (
                resumed_audits[record.txn].status,
                resumed_audits[record.txn].state,
            )
        )
        run.ops(n_audits, wrong)
        run.gate(
            "recover_replay: recovered engine + continuation is "
            "byte-identical to the uninterrupted oracle",
            snapshot_text(engine) == texts[chain_steps + resume_steps],
        )
        resident_peaks.append(engine.stats.peak_retained_completed)

    chain = [
        _recover_once(run, state["chain"], texts[chain_steps],
                      "recover_replay/chain", after=first_writes)
        for _ in range(CHAIN_REPEATS)
    ]
    tail_peaks: List[int] = []
    tail = [
        _recover_once(
            run, state["tail"], texts[tail_steps], "recover_replay/tail",
            after=lambda engine: tail_peaks.append(
                engine.stats.peak_retained_completed
            ),
        )
        for _ in range(TAIL_REPEATS)
    ]
    follow = [
        _follow_once(run, state["tail"], texts[tail_steps],
                     "recover_replay/tail")
        for _ in range(TAIL_REPEATS)
    ]
    run.metrics["rss_peak_mb"] = measure.proc_hwm_mb(os.getpid())

    run.gate(
        "recover_replay: chain recovery replays at most one checkpoint "
        "interval of WAL",
        all(info.replayed_steps <= CHAIN_CHECKPOINT_INTERVAL
            for _w, _c, info in chain),
    )
    run.gate(
        "recover_replay: tail recovery replays the whole WAL",
        all(info.replayed_steps == tail_steps for _w, _c, info in tail),
    )
    def best(samples: Sequence[Tuple], column: int) -> float:
        return min(sample[column] for sample in samples)

    run.metrics["recover_s"] = best(chain, 0)
    run.metrics["replay_steps_per_s"] = tail_steps / best(tail, 0)
    run.metrics["follower_steps_per_s"] = tail_steps / best(follow, 0)
    # One full cycle — chain recovery, first writes, tail recovery, cold
    # follower — at each operation's least-disturbed wall and CPU time.
    cycle = (chain, resume_times, tail, follow)
    cycle_steps = chain_steps + resume_steps + 2 * tail_steps
    run.metrics["steps_per_s"] = cycle_steps / sum(
        best(samples, 0) for samples in cycle)
    run.metrics["cpu_us_per_step"] = sum(
        best(samples, 1) for samples in cycle) / cycle_steps * 1e6
    run.samples["recover_s"] = CHAIN_REPEATS
    run.samples["replay_steps_per_s"] = TAIL_REPEATS
    run.samples["follower_steps_per_s"] = TAIL_REPEATS
    run.samples["steps_per_s"] = run.samples["cpu_us_per_step"] = {
        "cycle_steps": cycle_steps
    }
    run.windows["recover_s"] = [wall for wall, _c, _i in chain]
    run.windows["tail_recover_s"] = [wall for wall, _c, _i in tail]
    run.windows["follow_s"] = [wall for wall, _c in follow]
    _latency_metrics(run, feed_latencies)
    _audit_metric(run, audit_latencies)
    # Summed over the two engines recover() brings back, as serve_step
    # sums over its two tenants.
    run.metrics["resident_peak"] = resident_peaks[0] + tail_peaks[0]
    run.gate("recover_replay: every recovery reports the same resident peak",
             len(set(resident_peaks)) == 1 and len(set(tail_peaks)) == 1)
    run.metrics["wal_dir_bytes_per_step"] = (
        measure.dir_bytes(state["chain"]) / chain_steps
    )


WORKLOADS = {
    "serve_step": serve_step,
    "engine_resident": engine_resident,
    "serve_bulk_read": serve_bulk_read,
    "recover_replay": recover_replay,
}
