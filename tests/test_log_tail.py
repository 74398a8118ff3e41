"""Three entry points, one verdict.

``recover()``, ``WalFollower.poll()`` and ``WalFollower.promote()`` are
entry points on the one log-tail state machine in ``repro.durability``
(chain restore → incremental segment read → in-order apply).  This table
pins that they read a directory the same way: for every fixture below —
a crashed ``wal_dir``, most of them damaged — the three either produce a
**byte-identical** engine (and ``recover``/``promote`` leave identical
repaired files behind) or raise the **same** exception class.

The documented differences are the sealed/unsealed ones, and only those:
beside a live writer (``poll``) an unterminated final fragment is an
append in flight and a gap is lag, so there the follower stays short of
the sealed readers without raising — and sealing it (``promote`` of that
same follower) lands on the common verdict.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.durability import DurableEngine, recover
from repro.errors import RecoveryError, WalCorruptionError
from repro.faults import FaultPlan, FaultyIO
from repro.io import engine_snapshot_to_json
from repro.replication import WalFollower
from repro.workloads.generator import WorkloadConfig, basic_stream

STREAM = list(basic_stream(WorkloadConfig(
    n_transactions=40, n_entities=10, multiprogramming=5,
    write_fraction=0.4, max_accesses=3, seed=11,
)))

TORN_FRAGMENT = '{"format":1,"seq":9999,"step":{"kind":"re'


def _crashed(wal, *, steps=20, **kwargs):
    """A primary that logged ``STREAM[:steps]`` and was killed."""
    kwargs.setdefault("checkpoint_interval", 16)
    durable = DurableEngine(
        scheduler="conflict-graph", policy="eager-c1", wal_dir=wal, **kwargs
    )
    durable.feed_many(STREAM[:steps])
    durable.simulate_crash()
    return wal


def _segments(wal):
    return sorted((wal / "segments").iterdir())


def _checkpoints(wal):
    return sorted((wal / "checkpoints").iterdir())


def _append(path, text):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(text)


# -- fixtures: each builds under *tmp* and returns (early, final) — the
# -- directory as a follower first saw it (None: as it is now) and as the
# -- dead primary left it.


def clean_tail(tmp):
    return None, _crashed(tmp / "wal")


def torn_unterminated_tail(tmp):
    wal = _crashed(tmp / "wal")
    _append(_segments(wal)[-1], TORN_FRAGMENT)
    return None, wal


def terminated_garbage_tail(tmp):
    wal = _crashed(tmp / "wal")
    _append(_segments(wal)[-1], TORN_FRAGMENT + "\n")
    return None, wal


def record_missing_only_its_newline(tmp):
    wal = _crashed(tmp / "wal")
    segment = _segments(wal)[-1]
    text = segment.read_text()
    assert text.endswith("}\n")
    segment.write_text(text[:-1])
    return None, wal


def two_torn_tails(tmp):
    wal = _crashed(tmp / "wal", steps=30, shards=2, checkpoint_interval=0)
    segments = _segments(wal)
    assert len(segments) >= 2
    for segment in segments[:2]:
        _append(segment, '{"format":1,"seq":77,"st\n')
    return None, wal


def garbage_mid_segment(tmp):
    wal = _crashed(tmp / "wal", checkpoint_interval=0)
    segment = _segments(wal)[-1]
    lines = segment.read_text().splitlines()
    lines[5] = lines[5][: len(lines[5]) // 2]  # tear a MIDDLE record
    segment.write_text("\n".join(lines) + "\n")
    return None, wal


def garbage_then_fragment(tmp):
    """An unparsable line is the torn tail only when it is the *last*
    thing in the segment — not when anything follows it."""
    wal = _crashed(tmp / "wal")
    _append(_segments(wal)[-1], "not json at all\n" + TORN_FRAGMENT)
    return None, wal


def seq_gap(tmp):
    wal = _crashed(tmp / "wal", checkpoint_interval=0)
    segment = _segments(wal)[-1]
    lines = segment.read_text().splitlines()
    del lines[7]  # a cleanly missing record is a gap, not a torn tail
    segment.write_text("\n".join(lines) + "\n")
    return None, wal


def duplicate_seq(tmp):
    wal = _crashed(tmp / "wal", checkpoint_interval=0)
    segment = _segments(wal)[-1]
    lines = segment.read_text().splitlines()
    segment.write_text("\n".join(lines + [lines[5]]) + "\n")
    return None, wal


def stale_segment_below_the_checkpoint(tmp):
    """A crash between publishing a checkpoint and deleting the segments
    it covers leaves records at or below the checkpoint seq on disk."""
    wal = tmp / "wal"
    durable = DurableEngine(
        scheduler="conflict-graph", policy="eager-c1", wal_dir=wal,
        checkpoint_interval=8,
    )
    durable.feed_many(STREAM[:7])
    (stale,) = _segments(wal)
    kept = tmp / stale.name
    shutil.copy(stale, kept)
    durable.feed_many(STREAM[7:20])
    durable.simulate_crash()
    assert stale.name not in {path.name for path in _segments(wal)}
    shutil.copy(kept, stale)
    return None, wal


def corrupt_checkpoint(tmp):
    wal = _crashed(tmp / "wal", steps=len(STREAM), checkpoint_interval=8)
    _checkpoints(wal)[-1].write_text('{"format": 1, "kind": "durability-che')
    return None, wal


def broken_prev_seq(tmp):
    wal = _crashed(tmp / "wal", steps=len(STREAM), checkpoint_interval=8)
    checkpoints = _checkpoints(wal)
    assert len(checkpoints) >= 3
    checkpoints[1].unlink()  # a missing middle link loses deltas
    return None, wal


def coreless_latest_link(tmp):
    wal = _crashed(tmp / "wal", steps=len(STREAM), checkpoint_interval=8)
    latest = _checkpoints(wal)[-1]
    payload = json.loads(latest.read_text())
    del payload["core"]
    payload["core_stripped"] = True
    latest.write_text(json.dumps(payload))
    return None, wal


def _rewrite_checkpoint(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def delta_lost_a_key(tmp):
    wal = _crashed(tmp / "wal", steps=len(STREAM), checkpoint_interval=8)
    _rewrite_checkpoint(
        _checkpoints(wal)[1], lambda payload: payload["delta"].pop("results")
    )
    return None, wal


def delta_with_a_short_shard_list(tmp):
    wal = _crashed(
        tmp / "wal", steps=len(STREAM), shards=2, checkpoint_interval=8
    )
    _rewrite_checkpoint(
        _checkpoints(wal)[1],
        lambda payload: payload["delta"]["shard_results"].pop(),
    )
    return None, wal


def core_disagrees_with_the_chain(tmp):
    """Every link reads fine on its own; together they reconstruct fewer
    log entries than the latest core says it had."""
    wal = _crashed(tmp / "wal", steps=len(STREAM), checkpoint_interval=8)

    def edit(payload):
        payload["core"]["scheduler_state"]["log_len"] += 1

    _rewrite_checkpoint(_checkpoints(wal)[-1], edit)
    return None, wal


def sharded_core_disagrees_with_the_chain(tmp):
    wal = _crashed(
        tmp / "wal", steps=len(STREAM), shards=2, checkpoint_interval=8
    )

    def edit(payload):
        payload["core"]["deleted_ids_len"] += 1

    _rewrite_checkpoint(_checkpoints(wal)[-1], edit)
    return None, wal


def primary_checkpointed_past_the_follower(tmp):
    wal = tmp / "wal"
    durable = DurableEngine(
        scheduler="conflict-graph", policy="eager-c1", wal_dir=wal,
        checkpoint_interval=8,
    )
    durable.feed_many(STREAM[:4])
    early = tmp / "early"
    shutil.copytree(wal, early)
    durable.feed_many(STREAM[4:])
    durable.simulate_crash()
    assert not any(path.name.startswith("00000000") for path in _segments(wal))
    return early, wal


TWO_TORN = (WalCorruptionError, "torn segment tails")
MALFORMED_DELTA = (RecoveryError, "delta 2 of")
LENGTH_MISMATCH = (RecoveryError, "history reconstructs")
MID_SEGMENT = (WalCorruptionError, "not the segment tail")
NOT_CONTIGUOUS = (WalCorruptionError, "not contiguous")

#: (fixture, sealed verdict, poll verdict, torn records a sealed reader
#: drops).  Verdicts: "ok" / "same" = the common byte-identical engine;
#: "short" = no error, but short of the sealed readers (the documented
#: unsealed difference); (exception class, message fragment) = raises
#: exactly that.
TABLE = [
    (clean_tail, "ok", "same", 0),
    (torn_unterminated_tail, "ok", "same", 1),
    (terminated_garbage_tail, "ok", "same", 1),
    (record_missing_only_its_newline, "ok", "short", 0),
    (two_torn_tails, TWO_TORN, TWO_TORN, None),
    (garbage_mid_segment, MID_SEGMENT, MID_SEGMENT, None),
    (garbage_then_fragment, MID_SEGMENT, MID_SEGMENT, None),
    (seq_gap, NOT_CONTIGUOUS, "short", None),
    (duplicate_seq, NOT_CONTIGUOUS, NOT_CONTIGUOUS, None),
    (stale_segment_below_the_checkpoint, "ok", "same", 0),
    (corrupt_checkpoint, (RecoveryError, "corrupt checkpoint"),
     (RecoveryError, "corrupt checkpoint"), None),
    (broken_prev_seq, (RecoveryError, "chain is broken"),
     (RecoveryError, "chain is broken"), None),
    (coreless_latest_link, (RecoveryError, "has no core"),
     (RecoveryError, "has no core"), None),
    (delta_lost_a_key, MALFORMED_DELTA, MALFORMED_DELTA, None),
    (delta_with_a_short_shard_list, MALFORMED_DELTA, MALFORMED_DELTA, None),
    (core_disagrees_with_the_chain, LENGTH_MISMATCH, LENGTH_MISMATCH, None),
    (sharded_core_disagrees_with_the_chain, LENGTH_MISMATCH, LENGTH_MISMATCH,
     None),
    (primary_checkpointed_past_the_follower, "ok", "same", 0),
]


def _fingerprint(engine) -> str:
    return engine_snapshot_to_json(engine.snapshot())


def _files(wal):
    return {
        str(path.relative_to(wal)): path.read_bytes()
        for sub in ("segments", "checkpoints")
        for path in sorted((wal / sub).iterdir())
    }


class _Directory:
    """One private copy of the fixture per entry point."""

    def __init__(self, tmp, name, early, final):
        self.path = tmp / name
        self.early = early
        self.final = final
        shutil.copytree(final, self.path)

    def _show(self, source):
        shutil.rmtree(self.path)
        shutil.copytree(source, self.path)

    def follower(self):
        """A follower that met the directory early (when there is an
        early), after which the primary wrote the rest and died."""
        if self.early is None:
            return WalFollower(self.path)
        self._show(self.early)
        follower = WalFollower(self.path)
        follower.poll()
        self._show(self.final)
        return follower


def _outcome(action):
    """("ok", value) or ("raised", exception)."""
    try:
        return "ok", action()
    except (RecoveryError, WalCorruptionError) as exc:
        return "raised", exc


def _assert_raised(outcome, verdict):
    kind, message = verdict
    assert outcome[0] == "raised", outcome
    assert type(outcome[1]) is kind
    assert message in str(outcome[1])


@pytest.mark.parametrize(
    "build,sealed,polled,torn", TABLE, ids=[row[0].__name__ for row in TABLE]
)
def test_three_entry_points_one_verdict(tmp_path, build, sealed, polled, torn):
    early, final = build(tmp_path)
    pristine = _files(final)

    def recovering():
        directory = _Directory(tmp_path, "recover", early, final)
        engine = recover(directory.path)
        engine.simulate_crash()
        return engine, _files(directory.path)

    def polling():
        directory = _Directory(tmp_path, "poll", early, final)
        follower = directory.follower()
        follower.poll()
        assert _files(directory.path) == pristine  # a pure observer
        return follower, directory

    def promoting_cold():
        directory = _Directory(tmp_path, "promote", early, final)
        engine = directory.follower().promote()
        engine.simulate_crash()
        return engine, _files(directory.path)

    recovered = _outcome(recovering)
    tailed = _outcome(polling)
    promoted = _outcome(promoting_cold)

    if sealed == "ok":
        assert recovered[0] == promoted[0] == "ok"
        engine, repaired = recovered[1]
        info = engine.recovery_info
        assert info.torn_records_dropped == torn
        assert len(info.repaired_segments) == torn
        assert (repaired != pristine) == bool(torn)
        assert promoted[1][0].seq == engine.seq
        assert _fingerprint(promoted[1][0].engine) == _fingerprint(engine.engine)
        assert promoted[1][1] == repaired
        # Idempotent: the repair removed the torn bytes for good.
        again = recover(tmp_path / "recover")
        assert again.recovery_info.torn_records_dropped == 0
        assert _fingerprint(again.engine) == _fingerprint(engine.engine)
        again.simulate_crash()
    else:
        _assert_raised(recovered, sealed)
        _assert_raised(promoted, sealed)

    if polled in ("same", "short"):
        assert tailed[0] == "ok"
        follower, directory = tailed[1]
        if polled == "same":
            engine = recovered[1][0]
            assert follower.wal_seq == engine.seq
            assert _fingerprint(follower.engine) == _fingerprint(engine.engine)
        elif sealed == "ok":
            assert follower.wal_seq < recovered[1][0].seq
        else:
            assert follower.lag().lag_seq > 0
        # Sealing the warm follower lands on the common verdict.
        warm = _outcome(follower.promote)
        if sealed == "ok":
            engine, repaired = recovered[1]
            assert warm[0] == "ok"
            warm[1].simulate_crash()
            assert warm[1].seq == engine.seq
            assert _fingerprint(warm[1].engine) == _fingerprint(engine.engine)
            assert _files(directory.path) == repaired
        else:
            _assert_raised(warm, sealed)
            assert _files(directory.path) == pristine  # nothing repaired
    else:
        _assert_raised(tailed, polled)


def test_fault_sites_fire_once_per_entry_point(tmp_path):
    """Seeded fault plans count occurrences: each entry point consults
    its own site once, and only ``poll()`` consults ``follower.apply``
    (once per non-empty apply run)."""
    wal = _crashed(tmp_path / "wal")
    plan = FaultPlan([])
    io = FaultyIO(plan)

    def counts():
        return tuple(
            plan.occurrences(site)
            for site in (
                "recover.start", "follower.read", "follower.apply",
                "promote.seal",
            )
        )

    follower = WalFollower(wal, io=io)
    assert counts() == (0, 0, 0, 0)
    assert follower.poll() > 0
    assert counts() == (0, 1, 1, 0)
    assert follower.poll() == 0  # nothing new: no apply run
    assert counts() == (0, 2, 1, 0)
    follower.promote().simulate_crash()
    assert counts() == (0, 2, 1, 1)
    WalFollower(wal, io=io).promote().simulate_crash()  # cold: applies all
    assert counts() == (0, 2, 1, 2)
    recover(wal, io=io).simulate_crash()
    assert counts() == (1, 2, 1, 2)
