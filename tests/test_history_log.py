"""One history log per engine: each step recorded once, and ``audit``
survives recovery.

Every append-only record — step results, a delaying scheduler's
execution order, deletions with their ticks — lives in one
``HistoryLog``, which checkpoints persist.  Pinned here:

* ``audit(txn)`` answers all five fields the same on the live engine,
  after ``recover()``, on a ``WalFollower`` caught up by ``poll()`` and
  after ``promote()`` — for a deleted, a retained completed and an active
  transaction, one loop or four shards;
* checkpoint deltas carry each step once (no input rows) and deletions as
  ``[tick, txn, ...]`` rows;
* format 2 — snapshots and ``wal_dir`` chains — is refused by name.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.durability import DurableEngine, recover
from repro.engine import build_engine
from repro.errors import ModelError, RecoveryError, SnapshotError
from repro.io import (
    history_deletions_from_rows,
    history_deletions_to_rows,
    restore_engine,
)
from repro.replication import WalFollower
from repro.workloads.generator import WorkloadConfig, basic_stream

STREAM = list(basic_stream(WorkloadConfig(
    n_transactions=60, n_entities=12, multiprogramming=6,
    write_fraction=0.5, max_accesses=3, zipf_s=0.4, seed=5,
    partitions=4, cross_fraction=0.25,
)))
#: Where the primary stops: mid-cadence, with transactions in flight and
#: a WAL tail past the last checkpoint.
STOP = 2 * len(STREAM) // 3 + 3


def _durable(wal, shards):
    return DurableEngine(
        scheduler="conflict-graph", policy="eager-c1", sweep_interval=8,
        wal_dir=wal, shards=shards, checkpoint_interval=16,
    )


def _sample(engine):
    """One deleted, one retained completed and one active transaction."""
    live = [engine.audit(txn) for txn in sorted(engine.live_transactions())]
    completed = next(r.txn for r in live if r.state != "active")
    active = next(r.txn for r in live if r.state == "active")
    return [engine.stats.deleted_ids[0], completed, active]


@pytest.mark.parametrize("shards", [1, 4])
def test_audit_is_the_same_in_four_places(tmp_path, shards):
    wal = tmp_path / "wal"
    primary = _durable(wal, shards)
    primary.feed_many(STREAM[:STOP])
    assert 0 < primary.last_checkpoint_seq < primary.seq
    txns = _sample(primary)
    live = [primary.audit(txn) for txn in txns]
    assert [record.status for record in live] == ["deleted", "live", "live"]
    assert all(record.accepted_at for record in live)
    assert live[0].deleted_at and not live[1].deleted_at

    follower = WalFollower(wal)
    follower.poll()
    assert follower.wal_seq == primary.seq
    followed = [follower.engine.audit(txn) for txn in txns]
    primary.simulate_crash()
    shutil.copytree(wal, tmp_path / "copy")
    recovered = recover(tmp_path / "copy")
    promoted = follower.promote()
    try:
        assert followed == live
        assert [recovered.audit(txn) for txn in txns] == live
        assert [promoted.audit(txn) for txn in txns] == live
    finally:
        recovered.close()
        promoted.close()


@pytest.mark.parametrize("shards", [1, 4])
def test_a_delta_records_each_step_once(tmp_path, shards):
    wal = tmp_path / "wal"
    primary = _durable(wal, shards)
    primary.feed_many(STREAM)
    primary.close(checkpoint=True)
    deltas = [
        json.loads(path.read_text())["delta"]
        for path in sorted((wal / "checkpoints").iterdir())
    ]
    keys = {"results", "deleted"}
    if shards > 1:
        keys |= {"shard_results", "shard_deleted"}
    assert all(set(delta) == keys for delta in deltas)
    # One result row per step fed; every deletion once, with its tick.
    assert sum(len(delta["results"]) for delta in deltas) == len(STREAM)
    deleted = [txn for delta in deltas for row in delta["deleted"] for txn in row[1:]]
    assert deleted == primary.stats.deleted_ids
    assert all(type(row[0]) is int for delta in deltas for row in delta["deleted"])


def test_deletion_rows_round_trip_and_refuse_other_shapes():
    ticks = {"A": 4, "B": 4, "C": 9}
    rows = history_deletions_to_rows(["A", "B", "C"], ticks)
    assert rows == [[4, "A", "B"], [9, "C"]]
    assert history_deletions_from_rows(rows) == [(4, "A"), (4, "B"), (9, "C")]
    for bad in ([[4]], [["A", 4]], [[4, 5]], [{"4": "A"}], "A", [[True, "A"]]):
        with pytest.raises(ModelError):
            history_deletions_from_rows(bad)


@pytest.mark.parametrize("shards", [1, 4])
def test_format_2_is_refused_by_name(tmp_path, shards):
    engine = build_engine(
        scheduler="conflict-graph", policy="eager-c1", shards=shards
    )
    engine.feed_many(STREAM[:40])
    snapshot = engine.snapshot()
    snapshot["format"] = 2
    with pytest.raises(SnapshotError, match=r"format[= ]2\b"):
        restore_engine(snapshot)

    wal = tmp_path / "wal"
    primary = _durable(wal, shards)
    primary.feed_many(STREAM[:40])
    primary.close(checkpoint=True)
    for path in (wal / "checkpoints").iterdir():
        payload = json.loads(path.read_text())
        payload["format"] = 2
        path.write_text(json.dumps(payload))
    with pytest.raises(RecoveryError, match=r"format=2\b"):
        recover(wal)
    with pytest.raises(RecoveryError, match=r"format=2\b"):
        WalFollower(wal)
