"""Replication units: WAL tailing, checkpoint adoption, lag, promotion.

The *equivalence* properties (a follower's snapshot byte-identical to a
``recover()`` of the same log, across every scheduler and shard count,
and the serving-layer failover drills) live in
``tests/test_replication_equivalence.py``; this module pins the
mechanisms they are built on — incremental tailing without the writer
lock, adoption of checkpoints that truncate the tail out from under the
follower, single-torn-tail tolerance, honest lag accounting, the
live-primary promotion guard, and the ``PROMOTIONS.json`` audit marker.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.durability import DurableEngine, recover
from repro.errors import (
    DurabilityError,
    PromotionError,
    WalLockedError,
)
from repro.faults import FaultPlan, FaultSpec, FaultyIO, InjectedIOError
from repro.io import engine_snapshot_to_json
from repro.replication import (
    PROMOTIONS_NAME,
    ReplicaLag,
    WalFollower,
    read_promotions,
)
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


def _fingerprint(engine) -> str:
    return engine_snapshot_to_json(engine.snapshot())


def _last_segment(wal_dir):
    segments = sorted(
        (wal_dir / "segments").iterdir(), key=lambda p: p.stat().st_mtime
    )
    return segments[-1]


def _recovery_fingerprint(wal_dir, tmp_path) -> str:
    """Oracle: what ``recover()`` of *wal_dir* yields, on a copy so the
    recovery's own repairs/locking never perturb the directory under
    test."""
    copy = tmp_path / "oracle-copy"
    if copy.exists():
        shutil.rmtree(copy)
    shutil.copytree(wal_dir, copy)
    (copy / "LOCK").unlink(missing_ok=True)
    recovered = recover(copy)
    try:
        return _fingerprint(recovered.engine)
    finally:
        recovered.close()


# ---------------------------------------------------------------------------
# Tailing
# ---------------------------------------------------------------------------


class TestTailing:
    def test_follower_tracks_live_primary(self, tmp_path):
        stream = _stream()
        durable = _durable(tmp_path)
        follower = WalFollower(tmp_path / "wal")
        for start in range(0, len(stream), 7):
            durable.feed_many(stream[start : start + 7])
            follower.poll()
        durable.close()
        follower.poll()
        assert follower.wal_seq == durable.seq
        assert follower.lag().lag_seq == 0
        primary_print = _fingerprint(durable._inner)
        assert _fingerprint(follower.engine) == primary_print
        follower.close()

    def test_idle_polls_apply_nothing(self, tmp_path):
        durable = _durable(tmp_path)
        durable.feed_many(_stream()[:10])
        follower = WalFollower(tmp_path / "wal")
        first = follower.poll()
        assert follower.poll() == 0
        assert follower.wal_seq == durable.seq
        assert first + follower.wal_seq >= durable.seq  # adopted or applied
        durable.close()
        follower.close()

    def test_checkpoint_adoption_survives_truncation(self, tmp_path):
        """The primary checkpoints + truncates faster than the follower
        reads: the vanished prefix is recovered via the chain, never
        stalled on."""
        stream = _stream()
        durable = _durable(tmp_path, checkpoint_interval=8)
        follower = WalFollower(tmp_path / "wal")
        durable.feed_many(stream)  # many checkpoints before any poll
        durable.close()
        follower.poll()
        assert follower.checkpoints_adopted >= 1
        assert follower.wal_seq == durable.seq
        assert _fingerprint(follower.engine) == _fingerprint(durable._inner)
        follower.close()

    def test_follower_takes_no_lock(self, tmp_path):
        durable = _durable(tmp_path)
        durable.feed_many(_stream()[:10])
        follower = WalFollower(tmp_path / "wal")
        follower.poll()
        # The primary is still alive and still writable.
        durable.feed_many(_stream()[10:20])
        durable.close()
        # And a fresh writer can open the directory while the follower
        # exists: observers leave no lock behind.
        reopened = recover(tmp_path / "wal")
        follower.poll()
        assert follower.wal_seq == reopened.seq
        reopened.close()
        follower.close()

    def test_sharded_stream_applies_in_seq_order(self, tmp_path):
        stream = _stream()
        durable = _durable(tmp_path, shards=4)
        follower = WalFollower(tmp_path / "wal")
        for start in range(0, len(stream), 5):
            durable.feed_many(stream[start : start + 5])
            follower.poll()
        durable.close()
        follower.poll()
        assert follower.wal_seq == durable.seq
        assert _fingerprint(follower.engine) == _fingerprint(durable._inner)
        follower.close()

    def test_closed_follower_refuses_to_poll(self, tmp_path):
        durable = _durable(tmp_path)
        durable.close()
        follower = WalFollower(tmp_path / "wal")
        follower.close()
        with pytest.raises(DurabilityError, match="closed"):
            follower.poll()


# ---------------------------------------------------------------------------
# Torn tails
# ---------------------------------------------------------------------------


class TestTornTails:
    def test_repaired_shrunken_segment_is_rescanned(self, tmp_path):
        """A recovery repairs a torn tail in place (the file shrinks);
        the follower's stale byte offset must reset, not misparse."""
        durable = _durable(tmp_path)
        durable.feed_many(_stream()[:20])
        durable.simulate_crash()
        segment = _last_segment(tmp_path / "wal")
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"format":1,"seq":9999,"step":{"kind":"re')
        follower = WalFollower(tmp_path / "wal")
        follower.poll()
        recovered = recover(tmp_path / "wal")  # repairs the torn bytes
        recovered.feed_many(_stream()[20:30])
        recovered.close()
        follower.poll()
        assert follower.wal_seq == recovered.seq
        assert _fingerprint(follower.engine) == _fingerprint(
            recovered._inner
        )
        follower.close()


# ---------------------------------------------------------------------------
# Lag accounting
# ---------------------------------------------------------------------------


class TestLag:
    def test_probe_sees_unapplied_records(self, tmp_path):
        durable = _durable(tmp_path)
        follower = WalFollower(tmp_path / "wal")
        durable.feed_many(_stream()[:20])
        lag = follower.lag(probe=True)
        assert isinstance(lag, ReplicaLag)
        assert lag.visible_seq == durable.seq
        assert lag.lag_seq == durable.seq - lag.applied_seq > 0
        follower.poll()
        caught_up = follower.lag()
        assert caught_up.lag_seq == 0
        assert caught_up.lag_seconds == 0.0
        durable.close()
        follower.close()

    def test_metrics_surface(self, tmp_path):
        durable = _durable(tmp_path)
        durable.feed_many(_stream()[:10])
        durable.close()
        follower = WalFollower(tmp_path / "wal")
        follower.poll()
        metrics = follower.metrics()
        assert metrics["polls"] == 1
        assert metrics["applied_seq"] == follower.wal_seq
        assert set(metrics) >= {
            "records_applied", "checkpoints_adopted", "lag_seq",
            "lag_seconds", "visible_seq",
        }
        follower.close()


# ---------------------------------------------------------------------------
# Promotion
# ---------------------------------------------------------------------------


class TestPromotion:
    def test_promote_refuses_live_primary(self, tmp_path):
        durable = _durable(tmp_path)
        durable.feed_many(_stream()[:10])
        follower = WalFollower(tmp_path / "wal")
        with pytest.raises(WalLockedError):
            follower.promote()
        # The refusal left the follower alive and the primary writable.
        durable.feed_many(_stream()[10:20])
        follower.poll()
        assert follower.wal_seq == durable.seq
        durable.close()
        follower.close()

    def test_promote_after_crash_matches_recovery_oracle(self, tmp_path):
        stream = _stream()
        durable = _durable(tmp_path)
        durable.feed_many(stream)
        follower = WalFollower(tmp_path / "wal")
        follower.poll()
        durable.simulate_crash()
        oracle = _recovery_fingerprint(tmp_path / "wal", tmp_path)
        promoted = follower.promote()
        try:
            assert _fingerprint(promoted._inner) == oracle
            assert promoted.seq == follower.wal_seq
            assert follower.promoted
        finally:
            promoted.close()

    def test_promoted_engine_is_writable_and_durable(self, tmp_path):
        stream = _stream()
        durable = _durable(tmp_path)
        durable.feed_many(stream[:20])
        follower = WalFollower(tmp_path / "wal")
        follower.poll()
        durable.simulate_crash()
        promoted = follower.promote()
        promoted.feed_many(stream[20:])
        final = _fingerprint(promoted._inner)
        final_seq = promoted.seq
        promoted.close()
        check = recover(tmp_path / "wal")
        assert check.seq == final_seq
        assert _fingerprint(check.engine) == final
        check.close()

    def test_promotions_marker_is_audited(self, tmp_path):
        durable = _durable(tmp_path)
        durable.feed_many(_stream()[:20])
        durable.simulate_crash()
        assert read_promotions(tmp_path / "wal") == []
        follower = WalFollower(tmp_path / "wal")
        follower.poll()
        promoted = follower.promote()
        promoted.close()
        entries = read_promotions(tmp_path / "wal")
        assert len(entries) == 1
        assert entries[0]["seq"] == 20
        assert entries[0]["pid"] > 0
        payload = json.loads(
            (tmp_path / "wal" / PROMOTIONS_NAME).read_text()
        )
        assert payload["kind"] == "wal-promotions"
        # A second failover appends, never overwrites, the audit trail.
        second = WalFollower(tmp_path / "wal")
        second.promote().close()
        assert len(read_promotions(tmp_path / "wal")) == 2

    def test_promotion_consumes_no_sequence_number(self, tmp_path):
        """The watermark arithmetic clients resume on must survive
        failover: promotion appends nothing to the WAL."""
        durable = _durable(tmp_path)
        durable.feed_many(_stream()[:20])
        sealed = durable.seq
        durable.simulate_crash()
        follower = WalFollower(tmp_path / "wal")
        follower.poll()
        promoted = follower.promote()
        assert promoted.seq == sealed
        promoted.close()

    def test_spent_follower_refuses_everything(self, tmp_path):
        durable = _durable(tmp_path)
        durable.feed_many(_stream()[:10])
        durable.simulate_crash()
        follower = WalFollower(tmp_path / "wal")
        promoted = follower.promote()
        promoted.close()
        with pytest.raises(DurabilityError, match="promoted"):
            follower.poll()
        with pytest.raises(DurabilityError, match="promoted"):
            follower.promote()

    def test_divergent_replica_refuses_to_promote(self, tmp_path):
        durable = _durable(tmp_path)
        durable.feed_many(_stream()[:20])
        follower = WalFollower(tmp_path / "wal")
        follower.poll()
        durable.simulate_crash()
        # Corrupt the warm engine behind the follower's back.
        follower._tail.engine = recover_divergent(tmp_path, _stream())
        with pytest.raises(PromotionError, match="divergent"):
            follower.promote()
        # The failed attempt released the writer lock.
        check = recover(tmp_path / "wal")
        check.close()


def recover_divergent(tmp_path, stream):
    """An engine whose state cannot match the log (different prefix)."""
    from repro.engine import build_engine

    engine = build_engine(scheduler="conflict-graph", policy="eager-c1")
    for step in stream[:7]:
        try:
            engine.feed(step)
        except Exception:
            pass
    return engine


# ---------------------------------------------------------------------------
# Fault sites
# ---------------------------------------------------------------------------


class TestFaultSites:
    def test_follower_read_fault_is_transient(self, tmp_path):
        durable = _durable(tmp_path)
        durable.feed_many(_stream()[:20])
        durable.close()
        plan = FaultPlan([FaultSpec(site="follower.read", at=1,
                                    kind="io_error")])
        follower = WalFollower(tmp_path / "wal", io=FaultyIO(plan))
        with pytest.raises(InjectedIOError):
            follower.poll()
        follower.poll()  # the next poll reads the same bytes again
        assert follower.wal_seq == 20
        follower.close()

    def test_promote_seal_fault_releases_nothing(self, tmp_path):
        durable = _durable(tmp_path)
        durable.feed_many(_stream()[:20])
        durable.simulate_crash()
        plan = FaultPlan([FaultSpec(site="promote.seal", at=1,
                                    kind="io_error")])
        follower = WalFollower(tmp_path / "wal", io=FaultyIO(plan))
        with pytest.raises(InjectedIOError):
            follower.promote()
        # The faulted attempt fired before the lock was taken; a retry
        # wins cleanly and the follower was not spent by the failure.
        promoted = follower.promote()
        assert promoted.seq == 20
        promoted.close()

    def test_generate_excludes_replication_sites_by_default(self):
        plan = FaultPlan.generate(seed=7, n_faults=64)
        for spec in plan.faults:
            assert not spec.site.startswith(
                ("follower.", "promote.", "server.")
            )


class TestAdoptionRace:
    """The publish-then-strip race: a follower's chain read can overlap
    the primary publishing checkpoint N and stripping N-1's core.  While
    the chain head keeps advancing the failure is transient — the
    follower must defer (serving stale reads) rather than die; a static
    coreless head is genuine damage and must still raise."""

    def _behind_follower(self, tmp_path):
        durable = _durable(tmp_path, checkpoint_interval=8)
        stream = _stream()
        durable.feed_many(stream[:4])
        follower = WalFollower(tmp_path / "wal")
        follower.poll()  # applied=4
        # Later checkpoints truncate the segments the follower still
        # needed: from here, only adoption can move it forward.
        durable.feed_many(stream[4:])
        durable.close()
        assert follower.wal_seq == 4
        return follower

    def test_racing_chain_defers_instead_of_dying(self, tmp_path,
                                                  monkeypatch):
        from repro import durability as durability_module
        from repro.errors import RecoveryError

        follower = self._behind_follower(tmp_path)

        def _always_stripped(*args, **kwargs):
            raise RecoveryError("latest checkpoint has no core")

        heads = iter(range(100, 200))
        monkeypatch.setattr(
            durability_module, "_restore_from_chain", _always_stripped
        )
        monkeypatch.setattr(
            follower._tail, "latest_checkpoint_seq", lambda: next(heads)
        )
        # Head advances between every attempt: poll survives, adopts
        # nothing, and stays on its current (stale but serving) state.
        assert follower.poll() == 0
        assert follower.checkpoints_adopted == 0
        assert not follower.closed

        # Once the burst subsides the next poll lands the adoption.
        monkeypatch.undo()
        follower.poll()
        assert follower.checkpoints_adopted == 1
        assert follower.lag().lag_seq == 0
        follower.close()

    def test_static_coreless_head_still_raises(self, tmp_path,
                                               monkeypatch):
        from repro import durability as durability_module
        from repro.errors import RecoveryError

        follower = self._behind_follower(tmp_path)

        def _always_stripped(*args, **kwargs):
            raise RecoveryError("latest checkpoint has no core")

        monkeypatch.setattr(
            durability_module, "_restore_from_chain", _always_stripped
        )
        # The real chain head is static (the primary is closed), so the
        # second attempt sees the same head and raises for the caller.
        with pytest.raises(RecoveryError):
            follower.poll()
        follower.close()
