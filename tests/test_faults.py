"""Fault-injection machinery: plans, the storage shim, the WAL lock,
and the torn-write artifact matrix.

Three layers of guarantees are pinned here:

* **The injector itself** — :class:`repro.faults.FaultPlan` is
  deterministic (same seed, same plan; same plan, same firing sequence),
  validates its specs, and round-trips through JSON for
  ``repro serve --fault-plan``.
* **The durability layer under injected storage faults** — a failed or
  torn WAL append poisons the engine (appending past a torn record would
  bury it mid-file), failed checkpoints leave the log authoritative, a
  failed rename leaves the complete-but-unpublished tmp file behind, and
  ``recover()`` shrugs all of it off.
* **The torn-write matrix** — every combination of {torn WAL tail} x
  {torn checkpoint tmp file} x {failed directory fsync after checkpoint
  publish} must recover to exactly the oracle state or abort loudly;
  silently-wrong is the one forbidden outcome.  Damage beyond the
  single-crash envelope (two torn tails, a torn record mid-file, a
  corrupt checkpoint) must abort.
"""

from __future__ import annotations

import errno
import json
import os

import pytest

from repro.durability import DurableEngine, LOCK_NAME, open_durable, recover
from repro.engine import build_engine
from repro.errors import (
    DurabilityError,
    RecoveryError,
    ReproError,
    WalCorruptionError,
    WalLockedError,
)
from repro.faults import (
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    FaultyIO,
    InjectedIOError,
)
from repro.io import engine_snapshot_to_json
from repro.model.steps import Begin
from repro.workloads.generator import WorkloadConfig, basic_stream


def _stream(seed: int = 7, n: int = 40):
    return list(basic_stream(WorkloadConfig(
        n_transactions=n, n_entities=12, multiprogramming=4,
        write_fraction=0.5, max_accesses=3, zipf_s=0.3, seed=seed,
    )))


def _fingerprint(engine):
    return engine_snapshot_to_json(engine.snapshot())


def _oracle(steps, **config):
    oracle = build_engine(None, scheduler="conflict-graph",
                          policy="eager-c1", **config)
    for step in steps:
        oracle.feed(step)
    return oracle


# ---------------------------------------------------------------------------
# The plan itself
# ---------------------------------------------------------------------------


class TestFaultSpecValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ReproError, match="unknown fault site"):
            FaultSpec(site="wal.nope", at=1, kind="io_error")

    def test_illegal_kind_for_site_rejected(self):
        with pytest.raises(ReproError, match="not legal at site"):
            FaultSpec(site="dir.fsync", at=1, kind="torn_write")

    def test_occurrence_must_be_positive(self):
        with pytest.raises(ReproError, match="'at' must be"):
            FaultSpec(site="wal.append", at=0, kind="io_error")

    def test_every_declared_site_kind_pair_constructs(self):
        for site, kinds in FAULT_SITES.items():
            for kind in kinds:
                FaultSpec(site=site, at=1, kind=kind)


class TestFaultPlan:
    def test_fire_counts_occurrences_and_returns_due_specs(self):
        spec = FaultSpec(site="wal.append", at=3, kind="io_error")
        plan = FaultPlan([spec])
        assert plan.fire("wal.append") == []
        assert plan.fire("wal.append") == []
        assert plan.fire("wal.append") == [spec]
        assert plan.fire("wal.append") == []
        assert plan.occurrences("wal.append") == 4
        assert plan.fired == [("wal.append", 3, spec)]

    def test_reset_replays_the_same_plan(self):
        spec = FaultSpec(site="wal.fsync", at=1, kind="io_error")
        plan = FaultPlan([spec])
        assert plan.fire("wal.fsync") == [spec]
        plan.reset()
        assert plan.occurrences("wal.fsync") == 0
        assert plan.fire("wal.fsync") == [spec]

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan.generate(99, n_faults=6, horizon=50)
        path = tmp_path / "plan.json"
        plan.dump(path)
        loaded = FaultPlan.load(path)
        assert loaded.faults == plan.faults
        assert loaded.seed == 99

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="cannot load fault plan"):
            FaultPlan.load(path)
        path.write_text(json.dumps({"format": 1, "kind": "wrong"}))
        with pytest.raises(ReproError, match="unsupported fault-plan"):
            FaultPlan.load(path)

    def test_generate_is_deterministic_and_storage_only(self):
        a = FaultPlan.generate(1234, n_faults=8, horizon=100)
        b = FaultPlan.generate(1234, n_faults=8, horizon=100)
        assert a.faults == b.faults
        assert a.faults  # a seed that yields at least one fault
        for spec in a.faults:
            assert not spec.site.startswith("server.")
        assert FaultPlan.generate(1235, n_faults=8, horizon=100).faults != a.faults


# ---------------------------------------------------------------------------
# Storage faults against the durable engine
# ---------------------------------------------------------------------------


class TestInjectedStorageFaults:
    def test_failed_append_poisons_engine_and_recovery_resumes(self, tmp_path):
        steps = _stream()
        plan = FaultPlan([FaultSpec(site="wal.append", at=11, kind="io_error")])
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal", checkpoint_interval=0,
            io=FaultyIO(plan),
        )
        fed = 0
        with pytest.raises(InjectedIOError):
            for step in steps:
                durable.feed(step)
                fed += 1
        assert fed == 10
        # Poisoned: the segment may end in a torn record; feeding more
        # must be refused, loudly.
        with pytest.raises(DurabilityError, match="storage fault"):
            durable.feed(steps[fed])
        durable.simulate_crash()
        recovered = recover(tmp_path / "wal")
        assert recovered.seq == 10
        for step in steps[fed:]:
            recovered.feed(step)
        assert _fingerprint(recovered.engine) == _fingerprint(_oracle(steps))
        recovered.close()

    def test_torn_append_is_dropped_and_repaired(self, tmp_path):
        steps = _stream(seed=8)
        plan = FaultPlan([
            FaultSpec(site="wal.append", at=7, kind="torn_write", keep=9),
        ])
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal", checkpoint_interval=0,
            io=FaultyIO(plan),
        )
        with pytest.raises(InjectedIOError):
            for step in steps:
                durable.feed(step)
        durable.simulate_crash()
        # The torn prefix really is on disk.
        segments = list((tmp_path / "wal" / "segments").iterdir())
        assert any(
            not segment.read_text().endswith("\n") for segment in segments
        )
        recovered = recover(tmp_path / "wal")
        assert recovered.recovery_info.torn_records_dropped == 1
        assert recovered.recovery_info.repaired_segments
        assert recovered.seq == 6  # the torn 7th record never happened
        recovered.close()
        # The repair truncated the torn line in place.
        for segment in (tmp_path / "wal" / "segments").iterdir():
            text = segment.read_text()
            assert text == "" or text.endswith("\n")

    def test_enospc_checkpoint_leaves_log_authoritative(self, tmp_path):
        steps = _stream(seed=9)
        plan = FaultPlan([
            FaultSpec(site="checkpoint.write", at=1, kind="enospc"),
        ])
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal", checkpoint_interval=0,
            io=FaultyIO(plan),
        )
        for step in steps:
            durable.feed(step)
        with pytest.raises(InjectedIOError) as info:
            durable.checkpoint()
        assert info.value.errno == errno.ENOSPC
        # The full-disk checkpoint never published; no tmp litter either.
        checkpoints = tmp_path / "wal" / "checkpoints"
        assert list(checkpoints.iterdir()) == []
        # The append path was untouched: the engine is NOT poisoned,
        # keeps logging, and a retried checkpoint (disk freed) succeeds.
        durable.feed(Begin("fresh-after-enospc"))
        assert durable.checkpoint() == len(steps) + 1
        durable.simulate_crash()
        recovered = recover(tmp_path / "wal")
        assert recovered.seq == len(steps) + 1
        recovered.close()

    def test_failed_replace_keeps_tmp_and_recovery_ignores_it(self, tmp_path):
        steps = _stream(seed=10)
        plan = FaultPlan([
            FaultSpec(site="checkpoint.replace", at=1, kind="io_error"),
        ])
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal", checkpoint_interval=0,
            io=FaultyIO(plan),
        )
        for step in steps:
            durable.feed(step)
        with pytest.raises(InjectedIOError):
            durable.checkpoint()
        durable.simulate_crash()
        checkpoints = tmp_path / "wal" / "checkpoints"
        leftovers = list(checkpoints.iterdir())
        # The crashed-between-write-and-rename artifact: a complete tmp
        # file, no published checkpoint.
        assert len(leftovers) == 1
        assert ".tmp-" in leftovers[0].name
        recovered = recover(tmp_path / "wal")
        assert recovered.seq == len(steps)
        assert recovered.recovery_info.checkpoints_loaded == 0
        assert _fingerprint(recovered.engine) == _fingerprint(_oracle(steps))
        recovered.close()

    def test_failed_dir_fsync_after_publish_poisons_the_engine(self, tmp_path):
        """The rename lands, the directory fsync fails: disk now carries
        a checkpoint the engine's chain state does not — continuing would
        write the next link with a stale prev_seq.  The engine must
        refuse further work; recover() adopts the published link."""
        steps = _stream(seed=11)
        plan = FaultPlan([FaultSpec(site="dir.fsync", at=1, kind="io_error")])
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal", checkpoint_interval=0,
            io=FaultyIO(plan),
        )
        for step in steps:
            durable.feed(step)
        with pytest.raises(InjectedIOError):
            durable.checkpoint()
        published = list((tmp_path / "wal" / "checkpoints").iterdir())
        assert len(published) == 1 and ".tmp-" not in published[0].name
        with pytest.raises(DurabilityError, match="storage fault"):
            durable.feed(steps[0])
        durable.simulate_crash()
        recovered = recover(tmp_path / "wal")
        assert recovered.recovery_info.checkpoints_loaded == 1
        assert recovered.last_checkpoint_seq == len(steps)
        assert _fingerprint(recovered.engine) == _fingerprint(_oracle(steps))
        recovered.close()

    def test_recover_start_fault_fires(self, tmp_path):
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal",
        )
        durable.feed(_stream()[0])
        durable.simulate_crash()
        plan = FaultPlan([FaultSpec(site="recover.start", at=1, kind="io_error")])
        with pytest.raises(InjectedIOError):
            recover(tmp_path / "wal", io=FaultyIO(plan))
        # The fault fired before the lock was taken: a retry succeeds.
        recovered = recover(tmp_path / "wal", io=FaultyIO(plan))
        recovered.close()


# ---------------------------------------------------------------------------
# The writer lock
# ---------------------------------------------------------------------------


class TestWalLock:
    def test_second_writer_is_refused_while_owner_lives(self, tmp_path):
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal",
        )
        try:
            with pytest.raises(WalLockedError) as info:
                recover(tmp_path / "wal")
            assert info.value.pid == os.getpid()
        finally:
            durable.close()

    def test_close_releases_the_lock(self, tmp_path):
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal",
        )
        durable.close()
        # The directory is lockable again — and the LOCK file stays put
        # (unlinking a flocked path would let a later opener lock a
        # fresh inode beside a holder of the old one).
        assert (tmp_path / "wal" / LOCK_NAME).exists()
        recovered = recover(tmp_path / "wal")
        recovered.close()

    def test_stale_dead_pid_lock_is_reclaimed(self, tmp_path):
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal",
        )
        durable.simulate_crash()
        # Forge the lock a dead process would have left behind (real
        # PIDs are bounded well below this).
        (tmp_path / "wal" / LOCK_NAME).write_text(
            json.dumps({"pid": 2 ** 22 + 12345}) + "\n"
        )
        recovered = recover(tmp_path / "wal")
        assert recovered.recovery_info is not None
        recovered.close()

    def test_torn_lock_file_is_reclaimed(self, tmp_path):
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal",
        )
        durable.simulate_crash()
        (tmp_path / "wal" / LOCK_NAME).write_text('{"pi')  # torn write
        recovered = recover(tmp_path / "wal")
        recovered.close()

    def test_failed_construction_releases_the_lock(self, tmp_path):
        with pytest.raises(DurabilityError):
            DurableEngine(
                scheduler="conflict-graph", policy="eager-c1",
                wal_dir=tmp_path / "wal", checkpoint_interval=-1,
            )
        # Validation failed before the lock was taken; and a fresh open
        # of the same directory must succeed either way.
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal",
        )
        durable.close()

    def test_open_durable_routes_through_the_lock(self, tmp_path):
        first = open_durable(
            tmp_path / "wal", scheduler="conflict-graph", policy="eager-c1"
        )
        try:
            with pytest.raises(WalLockedError):
                open_durable(tmp_path / "wal")
        finally:
            first.close()


# ---------------------------------------------------------------------------
# The torn-write artifact matrix
# ---------------------------------------------------------------------------


def _build_crashed_wal(tmp_path, *, dir_fsync_fails: bool):
    """A wal_dir with one published checkpoint and a logged tail,
    abandoned mid-run (optionally with the checkpoint's directory fsync
    having failed after the rename published it)."""
    steps = _stream(seed=23, n=30)
    plan = FaultPlan(
        [FaultSpec(site="dir.fsync", at=1, kind="io_error")]
        if dir_fsync_fails else []
    )
    durable = DurableEngine(
        scheduler="conflict-graph", policy="eager-c1",
        wal_dir=tmp_path / "wal", checkpoint_interval=16,
        io=FaultyIO(plan),
    )
    fed = []
    for step in steps:
        try:
            durable.feed(step)
        except InjectedIOError:
            # The dir-fsync fault fires *after* the step was appended
            # and applied (the cadence checkpoint runs last in feed) and
            # *after* the rename published the checkpoint — the step
            # counts, but the engine is now poisoned: stop, like the
            # supervisor would.
            fed.append(step)
            break
        fed.append(step)
    durable.simulate_crash()
    checkpoints = [
        p for p in (tmp_path / "wal" / "checkpoints").iterdir()
        if ".tmp-" not in p.name
    ]
    assert checkpoints, "the build run must have published a checkpoint"
    return fed


@pytest.mark.parametrize("dir_fsync_failed", [False, True],
                         ids=["dir-fsync-ok", "dir-fsync-failed"])
@pytest.mark.parametrize("torn_tmp", [False, True],
                         ids=["no-tmp", "torn-tmp"])
@pytest.mark.parametrize("torn_tail", [False, True],
                         ids=["clean-tail", "torn-tail"])
class TestTornWriteMatrix:
    def test_recovers_exactly_or_aborts(
        self, tmp_path, torn_tail, torn_tmp, dir_fsync_failed
    ):
        steps = _build_crashed_wal(tmp_path, dir_fsync_fails=dir_fsync_failed)
        wal = tmp_path / "wal"
        if torn_tail:
            segments = sorted(
                (wal / "segments").iterdir(), key=lambda p: p.name
            )
            with open(segments[-1], "a", encoding="utf-8") as handle:
                handle.write('{"format":1,"seq":99999,"step":{"ki')
        if torn_tmp:
            # A checkpoint write that died mid-stream: mkstemp-named tmp
            # holding a JSON prefix.
            (wal / "checkpoints" / "checkpoint-0000099999.json.tmp-x1")\
                .write_text('{"format":1,"kind":"durability-chec')
        recovered = recover(wal)
        assert recovered.recovery_info.torn_records_dropped == (
            1 if torn_tail else 0
        )
        assert _fingerprint(recovered.engine) == _fingerprint(_oracle(steps))
        recovered.close()
        # Idempotent: the repairs leave a directory that recovers again.
        again = recover(wal)
        assert again.recovery_info.torn_records_dropped == 0
        assert _fingerprint(again.engine) == _fingerprint(_oracle(steps))
        again.close()


class TestBeyondTheCrashEnvelope:
    """Damage one crash cannot produce must abort, never guess."""

    def test_two_torn_tails_abort(self, tmp_path):
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal", shards=4, checkpoint_interval=0,
        )
        for step in _stream(seed=3):
            durable.feed(step)
        durable.simulate_crash()
        segments = sorted((tmp_path / "wal" / "segments").iterdir())
        assert len(segments) >= 2
        for segment in segments[:2]:
            with open(segment, "a", encoding="utf-8") as handle:
                handle.write('{"torn')
        with pytest.raises(WalCorruptionError, match="torn segment tails"):
            recover(tmp_path / "wal")

    def test_torn_record_mid_file_aborts(self, tmp_path):
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal", checkpoint_interval=0,
        )
        for step in _stream(seed=4):
            durable.feed(step)
        durable.simulate_crash()
        segment = next(
            p for p in (tmp_path / "wal" / "segments").iterdir()
            if p.suffix == ".wal"
        )
        lines = segment.read_text().splitlines()
        lines[len(lines) // 2] = lines[len(lines) // 2][:10]
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalCorruptionError, match="not the segment tail"):
            recover(tmp_path / "wal")

    def test_lost_latest_checkpoint_aborts(self, tmp_path):
        """A published-then-vanished checkpoint (e.g. its rename was
        never made durable and the directory entry was lost with the
        machine) breaks the chain: the WAL prefix it covered is gone."""
        durable = DurableEngine(
            scheduler="conflict-graph", policy="eager-c1",
            wal_dir=tmp_path / "wal", checkpoint_interval=8,
        )
        for step in _stream(seed=5):
            durable.feed(step)
        durable.simulate_crash()
        checkpoints = sorted((tmp_path / "wal" / "checkpoints").iterdir())
        assert len(checkpoints) >= 2
        checkpoints[-1].unlink()
        with pytest.raises((RecoveryError, WalCorruptionError)):
            recover(tmp_path / "wal")
