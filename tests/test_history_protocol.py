"""The history protocol, with no disk under it.

``snapshot(include_logs=False)`` is an engine's complete history-free
core; ``history_marks()`` / ``history_since(marks)`` cut the lists that
grow with history into tails; ``restore_engine(core, history=tails)``
splices them back.  Incremental checkpoints are exactly this, written to
files — so the property is pinned here without any: at every cut of a
seeded stream, the core plus the tails taken between consecutive marks
restore to an engine whose full snapshot is **byte-identical** to the
live one's, for all five schedulers, one loop or a router over four.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.engine import build_engine
from repro.errors import ReproError, SnapshotError
from repro.io import engine_snapshot_to_json, restore_engine
from repro.model.steps import Read
from repro.workloads.generator import (
    WorkloadConfig,
    basic_stream,
    multiwrite_stream,
    predeclared_stream,
)

#: (scheduler, canonical policy, stream factory) — all five schedulers.
CASES = [
    ("conflict-graph", "eager-c1", basic_stream),
    ("certifier", "noncurrent", basic_stream),
    ("strict-2pl", "lemma1", basic_stream),
    ("multiwrite", "eager-c3", multiwrite_stream),
    ("predeclared", "eager-c4", predeclared_stream),
]
SHARD_COUNTS = [1, 4]
SWEEP_INTERVAL = 4


def _stream(streamer, seed):
    return list(streamer(WorkloadConfig(
        n_transactions=40, n_entities=14, multiprogramming=5,
        write_fraction=0.5, max_accesses=3, zipf_s=0.4, seed=seed,
        partitions=4, cross_fraction=0.25,
    )))


def _fingerprint(engine) -> str:
    return engine_snapshot_to_json(engine.snapshot())


class _Chain:
    """What a checkpoint chain keeps, held in memory: the tails taken
    between consecutive marks.  Everything goes through JSON text, as it
    would through a file."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.marks = engine.history_marks()
        self.deltas = []

    def cut(self):
        """Take the tail since the last cut; returns (delta, restored)."""
        engine = self.engine
        delta = engine.history_since(self.marks)
        assert engine.history_since(self.marks) == delta  # reading advances nothing
        self.deltas.append(delta)
        self.marks = engine.history_marks()
        core, history = json.loads(
            json.dumps([engine.snapshot(include_logs=False), self.deltas])
        )
        restored = restore_engine(core, history=history)
        assert _fingerprint(restored) == _fingerprint(engine)
        assert restored.history_marks() == self.marks
        return delta, restored


def _is_empty(delta) -> bool:
    """No entry anywhere in the tail, whatever its layout."""
    def entries(value):
        if isinstance(value, list):
            return sum(entries(item) if isinstance(item, list) else 1
                       for item in value)
        return 1
    return all(entries(value) == 0 for value in delta.values())


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("scheduler,policy,streamer", CASES)
@pytest.mark.parametrize("seed", [3, 17])
def test_core_plus_tails_restores_byte_identically(
    scheduler, policy, streamer, shards, seed
):
    stream = _stream(streamer, seed)
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, len(stream)), 6))
    engine = build_engine(
        scheduler=scheduler, policy=policy, sweep_interval=SWEEP_INTERVAL,
        shards=shards,
    )
    chain = _Chain(engine)
    delta, _restored = chain.cut()  # nothing happened yet
    assert _is_empty(delta)

    mid_cadence = 0
    for index, step in enumerate(stream, start=1):
        engine.feed(step)
        if index not in cuts:
            continue
        if index % SWEEP_INTERVAL:
            mid_cadence += 1  # a monolith's cut between two sweeps
        chain.cut()
        if index == cuts[2]:
            # A cut right after a raising step: the step was refused, so
            # it left no trace in any list.
            with pytest.raises(ReproError):
                engine.feed(Read("never-begun", "x"))
            delta, _restored = chain.cut()
            assert _is_empty(delta)
        if index == cuts[4]:
            # An explicit sweep and a flush between two cuts.
            engine.sweep()
            engine.flush()
            chain.cut()
            delta, _restored = chain.cut()  # and nothing since
            assert _is_empty(delta)
    engine.flush()
    _delta, restored = chain.cut()
    assert mid_cadence
    # The tails partition the deletion log (strict 2PL keeps no graph to
    # delete from).
    deleted = [
        txn for delta in chain.deltas for row in delta["deleted"] for txn in row[1:]
    ]
    assert deleted == engine.stats.deleted_ids
    assert deleted or scheduler == "strict-2pl"
    # The restored engine is live, not a picture: it continues in step.
    for extra in _stream(streamer, seed + 1000)[:12]:
        outcomes = []
        for target in (engine, restored):
            try:
                outcomes.append(target.feed(extra).decision)
            except ReproError as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]
    assert _fingerprint(restored) == _fingerprint(engine)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_a_core_is_not_restorable_without_its_history(shards):
    engine = build_engine(
        scheduler="conflict-graph", policy="eager-c1", shards=shards
    )
    engine.feed_batch(_stream(basic_stream, 5), flush=True)
    assert engine.stats.deletions
    core = engine.snapshot(include_logs=False)

    def keys(value):
        if isinstance(value, dict):
            for key, item in value.items():
                yield key
                yield from keys(item)
        elif isinstance(value, list):
            for item in value:
                yield from keys(item)

    # Complete: no section that grows with history rides along, at any
    # depth — a caller has nothing left to strip.
    assert not {"results", "input_log", "deleted", "deleted_ids"} & set(keys(core))
    with pytest.raises(SnapshotError):
        restore_engine(core)


def _two_links(shards):
    engine = build_engine(
        scheduler="conflict-graph", policy="eager-c1", shards=shards
    )
    stream = _stream(basic_stream, 5)
    zero = engine.history_marks()
    engine.feed_batch(stream[:30])
    half = engine.history_marks()
    first = engine.history_since(zero)
    engine.feed_batch(stream[30:], flush=True)
    second = engine.history_since(half)
    return engine, [first, second]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_malformed_or_short_history_is_refused(shards):
    engine, deltas = _two_links(shards)

    def restore(history):
        return restore_engine(
            engine.snapshot(include_logs=False),
            history=json.loads(json.dumps(history)),
        )

    assert _fingerprint(restore(deltas)) == _fingerprint(engine)
    # A lost link: every length marker disagrees with the reconstruction.
    with pytest.raises(SnapshotError, match="history reconstructs"):
        restore(deltas[1:])
    # A link that lost a key names its position in the chain.
    lost_key = "results" if shards == 1 else "shard_results"
    damaged = [deltas[0], {k: v for k, v in deltas[1].items() if k != lost_key}]
    with pytest.raises(SnapshotError, match="delta 2 of 2 is malformed"):
        restore(damaged)
    with pytest.raises(SnapshotError, match="delta 1 of 2 is malformed"):
        restore([{**deltas[0], "deleted": None}, deltas[1]])
    if shards > 1:
        short = {**deltas[1], "shard_results": deltas[1]["shard_results"][:2]}
        with pytest.raises(SnapshotError, match="delta 2 of 2 is malformed"):
            restore([deltas[0], short])
    # A core that lost a section is refused as cleanly as a tail.
    with pytest.raises(SnapshotError, match="malformed snapshot core"):
        core = engine.snapshot(include_logs=False)
        del core["shards" if shards > 1 else "scheduler_state"]
        restore_engine(core, history=deltas)
    # The layouts do not mix: a monolith's core refuses a router's tails.
    other, other_deltas = _two_links(5 - shards)
    with pytest.raises(SnapshotError, match="malformed"):
        restore_engine(other.snapshot(include_logs=False), history=deltas)
