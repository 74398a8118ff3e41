"""Durability units: atomic writes, WAL codec, checkpoints, recovery.

The crash-injection *equivalence* suite (recovered run byte-identical to
an uninterrupted one, all five schedulers, sharded and monolithic) lives
in ``tests/test_crash_recovery_equivalence.py``; this module pins the
mechanisms it is built on — torn-write-proof file dumps, strict record
and payload validation, segment truncation, torn-tail repair, and the
abort-impact restore path.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import time

import pytest

from repro import durability

from repro.durability import (
    CHECKPOINT_KIND,
    DurableEngine,
    MANIFEST_NAME,
    recover,
)
from repro.engine import Engine
from repro.errors import (
    DurabilityError,
    ModelError,
    RecoveryError,
    SnapshotError,
    WalLockedError,
)
from repro.io import (
    atomic_write_text,
    engine_snapshot_from_json,
    engine_snapshot_to_json,
    graph_from_dict,
    graph_from_json,
    restore_engine,
    step_from_dict,
    wal_record_from_line,
    wal_record_to_line,
)
from repro.model.steps import Begin, Read, Write
from repro.workloads.generator import WorkloadConfig, basic_stream

CONFIG = WorkloadConfig(
    n_transactions=40, n_entities=10, multiprogramming=5,
    write_fraction=0.4, max_accesses=3, seed=11,
)


def _stream():
    return list(basic_stream(CONFIG))


def _durable(tmp_path, **kwargs):
    kwargs.setdefault("scheduler", "conflict-graph")
    kwargs.setdefault("policy", "eager-c1")
    kwargs.setdefault("checkpoint_interval", 16)
    return DurableEngine(wal_dir=tmp_path / "wal", **kwargs)


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert list(tmp_path.iterdir()) == [target]  # no tmp litter

    def test_published_file_gets_umask_mode_not_0600(self, tmp_path):
        """mkstemp's private 0600 must not leak through os.replace and
        silently revoke other readers of a regenerated artifact."""
        target = tmp_path / "artifact.json"
        atomic_write_text(target, "shared")
        umask = os.umask(0)
        os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_failure_mid_write_preserves_old_file(self, tmp_path, monkeypatch):
        """A crash between tmp-write and rename must leave the old file
        byte-identical (the bare ``open(...).write`` bug this replaces
        would have torn it)."""
        target = tmp_path / "snapshot.json"
        atomic_write_text(target, "precious old content")

        def exploding_replace(src, dst):
            raise OSError("simulated crash during publish")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(target, "half-written new content")
        monkeypatch.undo()
        assert target.read_text() == "precious old content"
        assert list(tmp_path.iterdir()) == [target]  # tmp file cleaned up

    def test_cli_dump_output_is_atomic(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        out = tmp_path / "graph.json"
        assert main([
            "dump", "--transactions", "12", "--format", "json",
            "--output", str(out),
        ]) == 0
        first = out.read_text()
        json.loads(first)  # parseable

        def exploding_replace(src, dst):
            raise OSError("simulated crash during publish")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            main([
                "dump", "--transactions", "12", "--seed", "3",
                "--format", "json", "--output", str(out),
            ])
        monkeypatch.undo()
        assert out.read_text() == first  # old dump survived intact


# ---------------------------------------------------------------------------
# WAL record codec
# ---------------------------------------------------------------------------


class TestWalRecords:
    def test_step_roundtrip(self):
        for step in (Begin("T1"), Read("T1", "x"), Write("T1", {"x", "y"})):
            seq, decoded, control = wal_record_from_line(
                wal_record_to_line(7, step)
            )
            assert (seq, decoded, control) == (7, step, None)

    def test_encoder_matches_json_dumps_reference(self):
        """``wal_record_to_line`` writes the per-step kinds out by hand;
        the bytes on disk must stay what ``json.dumps`` of the record
        dict gives (compact separators, sorted keys) — for every step
        kind, with ids that need escaping."""
        from repro.io import WAL_RECORD_FORMAT, step_to_dict
        from repro.model.status import AccessMode
        from repro.model.steps import BeginDeclared, Finish, WriteItem

        ids = ["T1", 'T"quote', "T\\back\\slash", "T-π-雪", "T\nnewline"]
        steps = []
        for txn in ids:
            for entity in ids:
                steps += [
                    Read(txn, entity),
                    WriteItem(txn, entity),
                    Write(txn, {entity, "z", "a"}),
                    BeginDeclared(
                        txn, {entity: AccessMode.READ, "a": AccessMode.WRITE}
                    ),
                ]
            steps += [Begin(txn), Finish(txn), Write(txn, frozenset())]
        assert {type(step).__name__ for step in steps} == {
            "Begin", "BeginDeclared", "Read", "Write", "WriteItem", "Finish",
        }
        for seq, step in enumerate(steps, start=1):
            reference = json.dumps(
                {
                    "format": WAL_RECORD_FORMAT,
                    "seq": seq,
                    "step": step_to_dict(step),
                },
                separators=(",", ":"),
                sort_keys=True,
            )
            line = wal_record_to_line(seq, step)
            assert line == reference
            assert "\n" not in line
            assert wal_record_from_line(line) == (seq, step, None)

    def test_control_roundtrip(self):
        seq, step, control = wal_record_from_line(
            wal_record_to_line(3, control="sweep")
        )
        assert (seq, step, control) == (3, None, "sweep")

    @pytest.mark.parametrize("line", [
        "",  # empty
        "{not json",
        '"a string"',
        '{"format":99,"seq":1,"control":"sweep"}',  # bad format
        '{"format":1,"control":"sweep"}',  # missing seq
        '{"format":1,"seq":0,"control":"sweep"}',  # non-positive seq
        '{"format":1,"seq":true,"control":"sweep"}',  # bool seq
        '{"format":1,"seq":1}',  # neither step nor control
        '{"format":1,"seq":1,"control":"dance"}',  # unknown control
        '{"format":1,"seq":1,"step":{"kind":"read","txn":"T1"}}',  # no entity
    ])
    def test_malformed_records_raise_model_error(self, line):
        with pytest.raises(ModelError):
            wal_record_from_line(line)

    def test_encoder_rejects_ambiguous_records(self):
        with pytest.raises(ModelError):
            wal_record_to_line(1)
        with pytest.raises(ModelError):
            wal_record_to_line(1, Begin("T1"), control="sweep")
        with pytest.raises(ModelError):
            wal_record_to_line(1, control="dance")


# ---------------------------------------------------------------------------
# Strict payload validation (the torn-vs-corrupt distinction)
# ---------------------------------------------------------------------------


class TestPayloadValidation:
    def test_truncated_graph_json_is_model_error(self):
        with pytest.raises(ModelError, match="not valid JSON"):
            graph_from_json('{"format": 2, "nodes": [')

    def test_graph_dict_names_missing_section(self):
        with pytest.raises(ModelError, match="'nodes'"):
            graph_from_dict({"format": 2, "closure": {}})
        with pytest.raises(ModelError, match="'closure'"):
            graph_from_dict({"format": 2, "nodes": []})
        with pytest.raises(ModelError, match="'format'"):
            graph_from_dict({})
        with pytest.raises(ModelError):
            graph_from_dict("not a dict")

    def test_graph_dict_wraps_mangled_node(self):
        engine = Engine(scheduler="conflict-graph")
        engine.feed(Begin("T1"))
        payload = engine.snapshot()["scheduler_state"]["graph"]
        payload["nodes"][0]["state"] = "NOT-A-STATE"
        with pytest.raises(ModelError, match="invalid section"):
            graph_from_dict(payload)

    def test_truncated_snapshot_json_is_model_error(self):
        with pytest.raises(ModelError, match="truncated or not valid"):
            engine_snapshot_from_json('{"format": 1, "config": {"sch')

    def test_step_payload_names_missing_field(self):
        with pytest.raises(ModelError, match="'kind'"):
            step_from_dict({"txn": "T1"})
        with pytest.raises(ModelError, match="missing or invalid"):
            step_from_dict({"kind": "write", "txn": "T1"})

    def test_restore_engine_raises_snapshot_error_not_keyerror(self):
        engine = Engine(scheduler="conflict-graph", policy="eager-c1")
        engine.feed_batch(_stream()[:10])
        snapshot = engine.snapshot()
        del snapshot["scheduler_state"]["currency"]
        with pytest.raises(SnapshotError):
            restore_engine(snapshot)
        mangled = engine.snapshot()
        mangled["engine"]["step_index"] = "not-an-int"
        with pytest.raises(SnapshotError):
            restore_engine(mangled)


# ---------------------------------------------------------------------------
# Durable engine mechanics
# ---------------------------------------------------------------------------


class TestDurableEngine:
    def test_refuses_to_reopen_existing_wal(self, tmp_path):
        durable = _durable(tmp_path)
        durable.feed_many(_stream()[:5])
        durable.close()
        with pytest.raises(DurabilityError, match="recover"):
            _durable(tmp_path)

    def test_closed_engine_rejects_feeds(self, tmp_path):
        durable = _durable(tmp_path)
        durable.close()
        with pytest.raises(DurabilityError, match="closed"):
            durable.feed(Begin("T1"))

    def test_checkpoint_truncates_covered_segments(self, tmp_path):
        durable = _durable(tmp_path, checkpoint_interval=8)
        durable.feed_many(_stream())
        durable.feed(Begin("TX-extra"))  # ensure the current epoch has data
        segments = list((tmp_path / "wal" / "segments").iterdir())
        epochs = {p.name.split("-")[0] for p in segments}
        assert len(epochs) == 1  # only the current epoch survives
        # every record since the last checkpoint, nothing more
        lines = sum(
            len(p.read_text().splitlines()) for p in segments
        )
        assert lines == durable.seq - durable.last_checkpoint_seq

    def test_manual_checkpoint_and_noop(self, tmp_path):
        durable = _durable(tmp_path, checkpoint_interval=0)
        durable.feed_many(_stream()[:10])
        assert durable.last_checkpoint_seq == 0  # cadence disabled
        assert durable.checkpoint() == 10
        assert durable.checkpoint() is None  # nothing new

    def test_checkpoints_are_incremental(self, tmp_path):
        """Checkpoint N must carry only the delta since checkpoint N-1,
        not the full history (the O(live + interval) cost argument), and
        superseded checkpoints are stripped down to their deltas."""
        durable = _durable(tmp_path, checkpoint_interval=16)
        durable.feed_many(_stream())
        paths = sorted((tmp_path / "wal" / "checkpoints").iterdir())
        assert len(paths) >= 2
        payloads = [json.loads(p.read_text()) for p in paths]
        for payload in payloads[:-1]:
            # Only the latest link keeps a restorable core on disk.
            assert "core" not in payload
            assert payload["core_stripped"] is True
        for payload in payloads:
            assert payload["kind"] == CHECKPOINT_KIND
            assert len(payload["delta"]["results"]) <= 16
        latest = payloads[-1]
        core_state = latest["core"]["scheduler_state"]
        assert "results" not in core_state  # logs live in deltas
        assert "deleted" not in core_state["graph"]
        total = sum(len(p["delta"]["results"]) for p in payloads)
        assert total == latest["seq"]

    def test_rejected_steps_leave_no_trace_across_recovery(self, tmp_path):
        """A step whose processing *raises* is refused: it produces no
        result and is recorded in no history list, so a chain whose
        checkpoint covers it recovers to the engine that never saw it."""
        from repro.errors import SchedulerError

        stream = _stream()
        wal_a = tmp_path / "a"
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=wal_a, checkpoint_interval=4,
        )
        oracle = Engine(scheduler="conflict-graph", policy="eager-c1")

        def feed_both(step):
            for engine in (durable, oracle):
                try:
                    engine.feed(step)
                except SchedulerError:
                    pass

        refused = Read("T-unknown", "x")  # raises: no BEGIN ever seen
        for step in stream[:10]:
            feed_both(step)
        feed_both(refused)
        for step in stream[10:20]:
            feed_both(step)
        # crash AFTER a checkpoint covered the raising step
        assert durable.last_checkpoint_seq >= 11
        durable.simulate_crash()
        recovered = recover(wal_a)
        assert engine_snapshot_to_json(
            recovered.engine.snapshot()
        ) == engine_snapshot_to_json(oracle.snapshot())
        for engine in (recovered.engine, oracle):
            assert refused not in engine.scheduler.input_schedule

    def test_assigning_an_engine_name_is_refused(self, tmp_path):
        """A public name the wrapper does not own belongs to the engine:
        setting it on the wrapper would shadow the engine's value, so
        reads and the engine's behaviour would part ways."""
        durable = _durable(tmp_path, sweep_interval=32)
        durable.close()
        resumed = recover(tmp_path / "wal")
        with pytest.raises(DurabilityError, match="sweep_interval"):
            resumed.sweep_interval = 64
        assert resumed.sweep_interval == resumed.engine.sweep_interval == 32
        resumed.engine.sweep_interval = 64  # the engine's own knob still works
        assert resumed.sweep_interval == 64
        resumed.checkpoint_interval = 8  # the wrapper's own names stay settable
        resumed.close()

    def test_clean_shutdown_recovers_without_replay(self, tmp_path):
        durable = _durable(tmp_path)
        durable.feed_many(_stream())
        durable.close(checkpoint=True)
        resumed = recover(tmp_path / "wal")
        assert resumed.recovery_info.replayed_steps == 0
        assert resumed.stats.steps_fed == durable.stats.steps_fed

    def test_recovered_engine_keeps_logging(self, tmp_path):
        stream = _stream()
        durable = _durable(tmp_path)
        durable.feed_many(stream[:20])
        durable.simulate_crash()
        resumed = recover(tmp_path / "wal")
        resumed.feed_many(stream[20:40])
        resumed.close()
        # a second crash/recover sees the full prefix
        final = recover(tmp_path / "wal")
        assert final.stats.steps_fed == 40

    def test_sweep_control_record_replays(self, tmp_path):
        stream = _stream()
        durable = _durable(tmp_path, checkpoint_interval=0,
                           sweep_interval=1000)
        durable.feed_many(stream[:25])
        durable.sweep()  # explicit out-of-cadence sweep, logged
        deletions = durable.stats.deletions
        assert deletions > 0
        durable.simulate_crash()
        recovered = recover(tmp_path / "wal")
        assert recovered.stats.deletions == deletions
        assert recovered.recovery_info.replayed_controls == 1


# ---------------------------------------------------------------------------
# Recovery failure modes
# ---------------------------------------------------------------------------


class TestRecoveryFailures:
    def test_missing_manifest(self, tmp_path):
        (tmp_path / "wal").mkdir()
        with pytest.raises(RecoveryError, match="MANIFEST"):
            recover(tmp_path / "wal")

    def test_flush_is_wal_logged(self, tmp_path):
        """``flush`` must not bypass the WAL (an un-logged sweep would
        not survive a crash)."""
        stream = _stream()
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal", shards=2, checkpoint_interval=0,
            sweep_interval=1000,
        )
        durable.feed_many(stream[:25])
        durable.flush()
        deletions = durable.stats.deletions
        assert deletions > 0
        durable.simulate_crash()
        recovered = recover(tmp_path / "wal")
        assert recovered.stats.deletions == deletions
        assert recovered.recovery_info.replayed_controls == 1

    def test_manifest_is_required_sections(self, tmp_path):
        wal = tmp_path / "wal"
        (wal).mkdir()
        (wal / MANIFEST_NAME).write_text(
            '{"format": 1, "kind": "wal-manifest", "shards": 1}'
        )
        with pytest.raises(RecoveryError, match="'config'"):
            recover(wal)


# ---------------------------------------------------------------------------
# Abort-impact tracking across restore (the restore-path audit)
# ---------------------------------------------------------------------------


def _aborty_stream():
    """A workload the conflict scheduler resolves with aborts."""
    config = WorkloadConfig(
        n_transactions=60, n_entities=6, multiprogramming=8,
        write_fraction=0.6, max_accesses=3, seed=23,
    )
    return list(basic_stream(config))


class TestAbortImpactRestore:
    def test_restore_reenables_abort_impact(self):
        engine = Engine(scheduler="conflict-graph", policy="eager-c1")
        engine.feed_batch(_aborty_stream()[:15])
        restored = Engine.restore(engine.snapshot())
        # eager-c1 consumes a dirty set, so the accumulator must be armed
        # the moment the graph exists — not lazily at some later feed.
        assert restored.graph._abort_impact is not None

    def test_restored_dirty_behavior_matches_uninterrupted(self):
        """Aborts after a restore must dirty the same impacted regions an
        uninterrupted run captures — no silent mark_all degradation
        (observable as diverging sweeps_skipped / dirty sets)."""
        stream = _aborty_stream()
        oracle = Engine(scheduler="conflict-graph", policy="eager-c1",
                        sweep_interval=4)
        aborted = 0
        for step in stream:
            aborted += len(oracle.feed(step).aborted)
        assert aborted > 0, "workload was meant to force aborts"

        for cut in (5, len(stream) // 2, len(stream) - 3):
            oracle = Engine(scheduler="conflict-graph", policy="eager-c1",
                            sweep_interval=4)
            oracle.feed_batch(stream)
            first = Engine(scheduler="conflict-graph", policy="eager-c1",
                           sweep_interval=4)
            first.feed_batch(stream[:cut])
            resumed = Engine.restore(
                json.loads(json.dumps(first.snapshot()))
            )
            resumed.feed_batch(stream[cut:])
            assert resumed.sweeps_skipped == oracle.sweeps_skipped
            assert (
                resumed._dirty_tracker.state_dict()
                == oracle._dirty_tracker.state_dict()
            )
            assert engine_snapshot_to_json(
                resumed.snapshot()
            ) == engine_snapshot_to_json(oracle.snapshot())


# ---------------------------------------------------------------------------
# The writer lock across processes
# ---------------------------------------------------------------------------

_WAIT = 30  # seconds; every cross-process wait below is bounded by it


def _race_for_lock(wal_dir: str, barrier, queue) -> None:
    """Child process body: everyone acquires at once; report the outcome."""
    from repro.durability import _WalLock
    from repro.errors import WalLockedError

    barrier.wait(_WAIT)
    try:
        lock = _WalLock.acquire(pathlib.Path(wal_dir))
    except WalLockedError:
        queue.put(("lost", os.getpid()))
    except Exception as exc:  # pragma: no cover - diagnostic only
        queue.put(("error", f"{type(exc).__name__}: {exc}"))
    else:
        # Hold long enough that every loser has observed a *live* owner.
        time.sleep(0.5)
        lock.release()
        queue.put(("won", os.getpid()))


def _race_for_lock_repeatedly(wal_dir: str, barrier, queue, rounds) -> None:
    """Long-lived racer: one acquire per barrier round; reports the
    rounds it won.  The winner releases only after every racer of the
    round has tried, and before anyone can start the next round."""
    from repro.durability import _WalLock
    from repro.errors import WalLockedError

    won = []
    try:
        for index in range(rounds):
            barrier.wait(_WAIT)
            try:
                lock = _WalLock.acquire(pathlib.Path(wal_dir))
            except WalLockedError:
                lock = None
            barrier.wait(_WAIT)
            if lock is not None:
                won.append(index)
                lock.release()
    except Exception as exc:  # pragma: no cover - diagnostic only
        barrier.abort()
        queue.put(("error", f"{type(exc).__name__}: {exc}"))
    else:
        queue.put(("rounds", won))


def _hold_lock_until_killed(wal_dir: str, queue) -> None:
    from repro.durability import _WalLock

    _WalLock.acquire(pathlib.Path(wal_dir))
    queue.put(os.getpid())
    time.sleep(10 * _WAIT)


def _run_racers(target, wal_dir, *extra, n_racers=4):
    """Spawn *n_racers* of *target* behind one barrier; returns their
    queue reports (queue drained before the joins, every wait bounded)."""
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(n_racers)
    queue = context.Queue()
    racers = [
        context.Process(
            target=target, args=(str(wal_dir), barrier, queue, *extra)
        )
        for _ in range(n_racers)
    ]
    for racer in racers:
        racer.start()
    try:
        reports = [queue.get(timeout=2 * _WAIT) for _ in racers]
    finally:
        for racer in racers:
            racer.join(timeout=_WAIT)
            if racer.is_alive():  # pragma: no cover - diagnostic only
                racer.kill()
    errors = [detail for kind, detail in reports if kind == "error"]
    assert not errors, errors
    return reports


def _assert_lockable(wal_dir: pathlib.Path) -> None:
    """Nothing holds *wal_dir*: it can be locked (and the holder's PID
    is then on record) and released, twice over."""
    for _ in range(2):
        lock = durability._WalLock.acquire(wal_dir)
        try:
            with pytest.raises(WalLockedError) as info:
                durability._WalLock.acquire(wal_dir)
            assert info.value.pid == os.getpid()
        finally:
            lock.release()


class TestWalLockStaleReclaim:
    """The kernel decides who holds a ``wal_dir``, never the bytes in
    ``LOCK``: whatever a dead owner (or an older lock protocol) left
    behind, racing openers elect exactly one winner and a released or
    orphaned directory is lockable at once."""

    def _forge_dead_owner(self, wal_dir: pathlib.Path) -> int:
        # A PID that existed and is now certainly dead: a child we reap.
        probe = multiprocessing.get_context("spawn").Process(target=int)
        probe.start()
        probe.join(_WAIT)
        dead_pid = probe.pid
        assert dead_pid is not None and not probe.is_alive()
        (wal_dir / "LOCK").write_text(
            json.dumps({"pid": dead_pid}) + "\n"
        )
        return dead_pid

    def test_exactly_one_process_reclaims_a_dead_lock(self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        self._forge_dead_owner(wal_dir)
        outcomes = _run_racers(_race_for_lock, wal_dir)
        assert sorted(kind for kind, _pid in outcomes) == [
            "lost", "lost", "lost", "won",
        ], outcomes
        # The winner released cleanly: the directory is lockable again.
        _assert_lockable(wal_dir)

    def test_one_winner_per_round_under_sustained_racing(self, tmp_path):
        """More racers than cores, 200 rounds: a protocol with a window
        (two winners, or none) shows up as a round without exactly one
        winner."""
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        self._forge_dead_owner(wal_dir)
        rounds = 200
        started = time.monotonic()
        reports = _run_racers(_race_for_lock_repeatedly, wal_dir, rounds)
        assert time.monotonic() - started < 20
        winners = sorted(index for _kind, won in reports for index in won)
        assert winners == list(range(rounds))
        _assert_lockable(wal_dir)

    def test_killed_holder_frees_the_directory_at_once(self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        context = multiprocessing.get_context("spawn")
        queue = context.Queue()
        holder = context.Process(
            target=_hold_lock_until_killed, args=(str(wal_dir), queue)
        )
        holder.start()
        try:
            holder_pid = queue.get(timeout=_WAIT)
            with pytest.raises(WalLockedError) as info:
                durability._WalLock.acquire(wal_dir)
            assert info.value.pid == holder_pid
        finally:
            holder.kill()  # SIGKILL: no shutdown courtesy
            holder.join(_WAIT)
        assert not holder.is_alive()
        _assert_lockable(wal_dir)

    def test_torn_lock_file_is_reclaimed_in_process(self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        (wal_dir / "LOCK").write_text('{"pi')  # torn write: no owner
        _assert_lockable(wal_dir)

    def test_stale_claim_from_dead_claimer_does_not_wedge(self, tmp_path):
        """A ``LOCK.claim`` from the retired claim-file protocol (or
        anything else lying beside ``LOCK``) has no say."""
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        dead = self._forge_dead_owner(wal_dir)
        (wal_dir / "LOCK.claim").write_text(
            json.dumps({"pid": dead}) + "\n"
        )
        _assert_lockable(wal_dir)

    def test_lock_descriptor_is_not_inheritable(self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        lock = durability._WalLock.acquire(wal_dir)
        try:
            assert os.get_inheritable(lock._fd) is False
        finally:
            lock.release()
