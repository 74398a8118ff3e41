"""Lockstep tests: incremental currency equals the from-scratch scan.

:class:`~repro.tracking.CurrencyTracker` maintains, per access, which
current values each transaction holds and the set of resident
transactions holding none; Corollary 1's selection reads that set instead
of recomputing ``completed - current``.  This suite is the soundness net
under that incremental structure:

* per-sweep equality of :class:`NoncurrentPolicy` with the independent
  oracle :func:`~repro.core.reference.naive_noncurrent_transactions`
  (which scans every entity row and every completed transaction) over
  seeded random streams with empty final writes and cycle aborts, for
  ``conflict-graph`` and ``certifier``;
* after every step, the tracker's derived state equals a tracker rebuilt
  from the serialized rows plus the graph's nodes — which is exactly what
  a restore does;
* snapshot/restore at an arbitrary step, crash recovery with a checkpoint
  interval coprime to the sweep interval, shard migration against the
  monolith, and a graph-seeded scheduler;
* each trap the design had to avoid, as a named test;
* a work-count guard: what a sweep unmasks must not grow with what the
  graph retains.

CI refuses to pass if this module is skipped.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import shutil
import tempfile

import pytest

from repro.core.conditions import is_noncurrent, noncurrent_transactions
from repro.core.policies import NoncurrentPolicy
from repro.core.reduced_graph import ReducedGraph
from repro.core.reference import naive_noncurrent_transactions
from repro.durability import DurableEngine, recover
from repro.engine import Engine, ShardedEngine
from repro.graphs.bitclosure import BitClosureGraph
from repro.io import currency_to_dict, engine_snapshot_to_json
from repro.model.status import TxnState
from repro.model.steps import Begin, Finish, Read, Write, WriteItem
from repro.registry import create_scheduler
from repro.scheduler.conflict import ConflictGraphScheduler
from repro.tracking import CurrencyTracker
from repro.workloads.banking import BankingConfig, banking_specs
from repro.workloads.generator import (
    WorkloadConfig,
    basic_stream,
    multiwrite_stream,
)

SEEDS = [3, 17, 91, 404]
NONCURRENT_SCHEDULERS = ["conflict-graph", "certifier"]


def _config(seed: int, **overrides) -> WorkloadConfig:
    # Few entities => plenty of overwrites, cycles and aborts; half the
    # accesses are reads, so read-only transactions (whose final write is
    # empty) are common.
    settings = dict(
        n_transactions=60,
        n_entities=6,
        multiprogramming=6,
        write_fraction=0.5,
        max_accesses=3,
        zipf_s=0.5,
        seed=seed,
    )
    settings.update(overrides)
    return WorkloadConfig(**settings)


def _resident_stream(accounts: int, n_steps: int, seed: int) -> list:
    """The ledger's resident workload shape: banking updates, no audits,
    at most eight in flight.  Interleaved in time linear in the output
    (``repro.model.schedule.interleave`` rescans every unstarted spec per
    step, too slow for 20 000 steps): only the next spec may begin."""
    config = BankingConfig(
        n_accounts=accounts, n_transfers=n_steps // 3 + 1, audit_every=0,
        zipf_s=0.3, multiprogramming=8, seed=seed,
    )
    rng = random.Random(seed + 2)
    pending = iter(banking_specs(config))
    in_flight: list = []
    out: list = []
    while len(out) < n_steps:
        pick = rng.randrange(8)
        if pick >= len(in_flight):
            in_flight.append(list(reversed(next(pending).steps())))
            pick = len(in_flight) - 1
        out.append(in_flight[pick].pop())
        if not in_flight[pick]:
            del in_flight[pick]
    return out


def _rebuilt(scheduler) -> CurrencyTracker:
    """What a restore derives: the serialized rows, then the graph's nodes."""
    tracker = scheduler.currency
    fresh = CurrencyTracker(
        dict(tracker.last_writer),
        {e: set(r) for e, r in tracker.readers_since_write.items()},
    )
    for txn in scheduler.graph:
        fresh.on_enter(txn)
    return fresh


def _assert_in_lockstep(scheduler) -> frozenset:
    """Derived state equals a rebuild; the selection equals the scan and
    does not change by being asked twice."""
    assert scheduler.currency == _rebuilt(scheduler)
    expected = naive_noncurrent_transactions(
        scheduler.currency, scheduler.graph
    )
    policy = NoncurrentPolicy()
    assert policy.select(scheduler) == expected
    assert policy.select(scheduler) == expected
    return expected


# ---------------------------------------------------------------------------
# Lockstep over random streams
# ---------------------------------------------------------------------------


class TestLockstepWithTheScan:
    @pytest.mark.parametrize("scheduler_name", NONCURRENT_SCHEDULERS)
    @pytest.mark.parametrize("sweep_interval", [1, 4])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_sweep_selects_what_the_scan_selects(
        self, scheduler_name, sweep_interval, seed
    ):
        scheduler = create_scheduler(scheduler_name)
        stream = list(basic_stream(_config(seed)))
        assert any(
            isinstance(s, Write) and not s.entities for s in stream
        ), "the stream must contain empty final writes"
        deleted = 0
        for index, step in enumerate(stream, start=1):
            scheduler.feed(step)
            selected = _assert_in_lockstep(scheduler)
            if index % sweep_interval == 0:
                scheduler.delete_transactions(sorted(selected))
                deleted += len(selected)
                _assert_in_lockstep(scheduler)
        assert deleted > 0
        assert scheduler.aborted, "the stream must contain cycle aborts"

    @pytest.mark.parametrize("scheduler_name", NONCURRENT_SCHEDULERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_restore_at_an_arbitrary_step_then_continue(
        self, scheduler_name, seed
    ):
        """The cut is not a sweep boundary: candidates that lapsed since
        the last sweep must be re-derived, not lost."""
        stream = list(basic_stream(_config(seed)))
        options = dict(
            scheduler=scheduler_name, policy="noncurrent", sweep_interval=5
        )
        oracle = Engine(**options)
        engine = Engine(**options)
        cuts = {
            cut if cut % 5 else cut + 1  # never on a sweep boundary
            for cut in (len(stream) // 3, (2 * len(stream)) // 3)
        }
        for index, step in enumerate(stream, start=1):
            assert engine.feed(step) == oracle.feed(step)
            if index in cuts:
                engine = Engine.restore(
                    json.loads(engine_snapshot_to_json(engine.snapshot()))
                )
                assert engine.scheduler.currency == oracle.scheduler.currency
                _assert_in_lockstep(engine.scheduler)
        assert engine.stats.deleted_ids == oracle.stats.deleted_ids
        assert engine.stats.deleted_ids
        assert engine_snapshot_to_json(
            engine.snapshot()
        ) == engine_snapshot_to_json(oracle.snapshot())

    @pytest.mark.parametrize("scheduler_name", NONCURRENT_SCHEDULERS)
    @pytest.mark.parametrize("shards", [1, 4])
    def test_recover_with_checkpoints_coprime_to_sweeps(
        self, scheduler_name, shards
    ):
        stream = list(
            basic_stream(
                _config(29, n_entities=16, partitions=4, cross_fraction=0.25)
            )
        )
        options = dict(
            scheduler=scheduler_name, policy="noncurrent", sweep_interval=4
        )
        cut = (2 * len(stream)) // 3 + 1
        wal_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-cur-")) / "wal"
        try:
            durable = DurableEngine(
                wal_dir=wal_dir, shards=shards, checkpoint_interval=7,
                **options,
            )
            for step in stream[:cut]:
                durable.feed(step)
            durable.simulate_crash()
            recovered = recover(wal_dir)
            inner = recovered.engine
            for shard in inner.shards if shards > 1 else [inner]:
                _assert_in_lockstep(shard.scheduler)
            for step in stream[cut:]:
                recovered.feed(step)
            oracle = (
                ShardedEngine(shards=shards, **options)
                if shards > 1
                else Engine(**options)
            )
            for step in stream:
                oracle.feed(step)
            assert inner.stats.deleted_ids == oracle.stats.deleted_ids
            assert inner.stats.deleted_ids
            assert engine_snapshot_to_json(
                inner.snapshot()
            ) == engine_snapshot_to_json(oracle.snapshot())
            recovered.close()
        finally:
            shutil.rmtree(wal_dir.parent, ignore_errors=True)

    @pytest.mark.parametrize("scheduler_name", NONCURRENT_SCHEDULERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_four_shards_with_migrations_against_the_monolith(
        self, scheduler_name, seed
    ):
        stream = list(
            basic_stream(
                _config(
                    seed, n_transactions=80, n_entities=16, partitions=4,
                    cross_fraction=0.3,
                )
            )
        )
        options = dict(scheduler=scheduler_name, policy="noncurrent")
        mono = Engine(**options)
        sharded = ShardedEngine(shards=4, **options)
        for step in stream:
            assert sharded.feed(step) == mono.feed(step)
            for shard in sharded.shards:
                _assert_in_lockstep(shard.scheduler)
        sharded.flush_pending()
        assert sharded.migrations > 0, "the stream must force migrations"
        assert sorted(sharded.stats.deleted_ids) == sorted(
            mono.stats.deleted_ids
        )
        assert mono.stats.deleted_ids
        # The union of the shard trackers is the monolith's tracker.
        merged = CurrencyTracker()
        for shard in sharded.shards:
            part = shard.scheduler.currency
            merged.absorb(
                CurrencyTracker(
                    dict(part.last_writer),
                    {e: set(r) for e, r in part.readers_since_write.items()},
                )
            )
            for txn in shard.graph:
                merged.on_enter(txn)
        assert merged == mono.scheduler.currency

    @pytest.mark.parametrize("seed", SEEDS)
    def test_graph_seeded_scheduler(self, seed):
        """``SchedulerBase(graph=...)``: the tracker never saw the seed
        graph's transactions, yet every completed one is noncurrent (the
        fresh history has no current values) until steps say otherwise."""
        stream = list(basic_stream(_config(seed)))
        half = len(stream) // 2
        donor = ConflictGraphScheduler()
        donor.feed_many(stream[:half])
        seeded = ConflictGraphScheduler(graph=donor.graph.copy())
        assert seeded.graph.completed_transactions()
        assert (
            _assert_in_lockstep(seeded)
            == seeded.graph.completed_transactions()
        )
        for step in stream[half:]:
            if step.txn in donor.aborted:
                continue
            seeded.feed(step)
            _assert_in_lockstep(seeded)


# ---------------------------------------------------------------------------
# The traps, one by one
# ---------------------------------------------------------------------------


class TestTraps:
    @pytest.mark.parametrize("scheduler_name", NONCURRENT_SCHEDULERS)
    def test_empty_final_write_is_noncurrent_at_once(self, scheduler_name):
        """(a) ``Write(T, ∅)`` completes a transaction that never held
        anything: there is no access to learn of it from."""
        scheduler = create_scheduler(scheduler_name)
        scheduler.feed_many([Begin("T1"), Write("T1", frozenset())])
        assert _assert_in_lockstep(scheduler) == frozenset({"T1"})
        assert is_noncurrent(scheduler.currency, scheduler.graph, "T1")

    def test_lapsing_while_active_keeps_the_candidate(self):
        """(b) T1's only read is overwritten while T1 is still active:
        it must be selected the moment it completes."""
        scheduler = create_scheduler("conflict-graph")
        scheduler.feed_many([
            Begin("T1"), Read("T1", "x"),
            Begin("T2"), Write("T2", {"x"}),
        ])
        assert not scheduler.currency.is_current("T1")
        assert _assert_in_lockstep(scheduler) == frozenset()
        scheduler.feed(Write("T1", frozenset()))
        assert _assert_in_lockstep(scheduler) == frozenset({"T1"})

    def test_a_lapsed_active_transaction_can_regain_currency(self):
        scheduler = create_scheduler("conflict-graph")
        scheduler.feed_many([
            Begin("T1"), Read("T1", "x"),
            Begin("T2"), Write("T2", {"x"}),
            Read("T1", "y"), Write("T1", frozenset()),
        ])
        assert scheduler.currency.is_current("T1")
        assert _assert_in_lockstep(scheduler) == frozenset()

    def test_a_lapsed_active_transaction_can_abort(self):
        scheduler = create_scheduler("conflict-graph")
        scheduler.feed_many([
            Begin("T1"), Read("T1", "x"),
            Begin("T2"), Write("T2", {"x"}),
        ])
        result = scheduler.feed(Write("T1", {"x"}))  # T2 -> T1 -> T2
        assert result.aborted == ("T1",)
        assert "T1" not in scheduler.currency.idle_transactions()
        _assert_in_lockstep(scheduler)

    @pytest.mark.parametrize("scheduler_name", NONCURRENT_SCHEDULERS)
    def test_select_is_a_pure_query(self, scheduler_name):
        """(c) ``apply``/``verify_c2``/the CLI call ``select`` without
        necessarily deleting: a returned candidate stays a candidate."""
        scheduler = create_scheduler(scheduler_name)
        scheduler.feed_many([
            Begin("T1"), Write("T1", {"x"}),
            Begin("T2"), Write("T2", {"x"}),
        ])
        for _ in range(3):
            assert NoncurrentPolicy().select(scheduler) == frozenset({"T1"})
        assert NoncurrentPolicy().apply(scheduler) == frozenset({"T1"})
        assert NoncurrentPolicy().select(scheduler) == frozenset()
        _assert_in_lockstep(scheduler)

    def test_deleted_while_current_never_becomes_a_candidate(self):
        """(d) eager-c1 deletes the last writer of x; when x is later
        overwritten the tombstone's holding lapses and must vanish."""
        scheduler = create_scheduler("conflict-graph")
        scheduler.feed_many([Begin("T1"), Write("T1", {"x"})])
        scheduler.delete_transaction("T1")  # C1 holds vacuously
        tracker = scheduler.currency
        assert tracker.is_current("T1")  # the row is history: unchanged
        assert tracker.last_writer["x"] == "T1"
        scheduler.feed_many([Begin("T2"), Write("T2", {"x"})])
        assert not tracker.is_current("T1")
        assert "T1" not in tracker.idle_transactions()
        assert tracker == _rebuilt(scheduler)
        assert noncurrent_transactions(tracker, scheduler.graph) == frozenset()

    def test_eager_c1_auxiliary_state_stays_bounded(self):
        """(d) 20 000 steps under eager-c1: nothing in the tracker may
        grow with history, only with entities and live transactions."""
        accounts = 48
        stream = _resident_stream(accounts, 20_000, seed=7)
        engine = Engine(
            scheduler="conflict-graph", policy="eager-c1", sweep_interval=8
        )
        lapsed_tombstones = 0
        for index, step in enumerate(stream, start=1):
            engine.feed(step)
            if index % 500:
                continue
            tracker, graph = engine.scheduler.currency, engine.graph
            assert tracker == _rebuilt(engine.scheduler)
            live = len(graph)
            assert len(tracker._resident) == live
            assert len(tracker._idle) <= live
            assert len(tracker._holds) <= accounts + live
            gone = engine.deleted_transactions()
            assert not gone & tracker._resident
            lapsed_tombstones += sum(
                1 for txn in gone if not tracker.is_current(txn)
            )
        assert len(engine.stats.deleted_ids) > 4000
        assert lapsed_tombstones > 4000  # deleted ids do leave _holds

    def test_certifier_running_transactions_hold_reads_outside_the_graph(self):
        """(e) a running transaction is current (its read pins x's value)
        but not resident; it becomes a candidate only by certifying."""
        scheduler = create_scheduler("certifier")
        scheduler.feed_many([Begin("T1"), Read("T1", "x")])
        tracker = scheduler.currency
        assert tracker.is_current("T1") and "T1" not in scheduler.graph
        scheduler.feed_many([Begin("T2"), Write("T2", {"x"})])  # T1 lapses
        assert not tracker.is_current("T1")
        assert "T1" not in tracker.idle_transactions()
        assert _assert_in_lockstep(scheduler) == frozenset()
        scheduler.feed(Write("T1", frozenset()))  # certifies, holds nothing
        assert _assert_in_lockstep(scheduler) == frozenset({"T1"})

    def test_certifier_failed_certification_is_forgotten(self):
        scheduler = create_scheduler("certifier")
        scheduler.feed_many([
            Begin("T1"), Read("T1", "x"), Read("T1", "y"),
            Begin("T2"), Write("T2", {"x"}),
        ])
        result = scheduler.feed(Write("T1", {"x"}))
        assert result.aborted == ("T1",)
        tracker = scheduler.currency
        assert not tracker.is_current("T1")
        assert tracker.readers_since_write["y"] == set()
        _assert_in_lockstep(scheduler)

    def test_certifier_deletable_noncurrent_is_the_same_selection(self):
        scheduler = create_scheduler("certifier")
        for step in basic_stream(_config(17)):
            scheduler.feed(step)
            assert scheduler.deletable_noncurrent() == (
                naive_noncurrent_transactions(
                    scheduler.currency, scheduler.graph
                )
            )
        assert scheduler.deletable_noncurrent()

    def test_multiwrite_forget_retracts_writes_as_well_as_reads(self):
        """(f) an aborted multiwrite transaction's installed values are
        undone: its writer rows go, and its holdings with them."""
        scheduler = create_scheduler("multiwrite")
        scheduler.feed_many([
            Begin("T0"), WriteItem("T0", "z"), Finish("T0"),
            Begin("T1"), WriteItem("T1", "x"),
            Begin("T2"), Read("T2", "x"), Read("T2", "z"),
            WriteItem("T2", "y"),
        ])
        tracker = scheduler.currency
        assert tracker.current_transactions() == frozenset({"T0", "T1", "T2"})
        # T1 -> T2 already (dirty read of x); reading y needs T2 -> T1.
        result = scheduler.feed(Read("T1", "y"))
        assert set(result.aborted) == {"T1", "T2"}  # T2 read from T1
        assert tracker.last_writer == {"z": "T0"}
        assert tracker.readers_since_write == {
            "x": set(), "y": set(), "z": set()
        }
        assert tracker.current_transactions() == frozenset({"T0"})
        assert tracker == _rebuilt(scheduler)

    def test_multiwrite_cascades_keep_holdings_in_step(self):
        for seed in SEEDS:
            scheduler = create_scheduler("multiwrite")
            for step in multiwrite_stream(
                _config(seed, n_entities=4, write_fraction=0.6)
            ):
                scheduler.feed(step)
                assert scheduler.currency == _rebuilt(scheduler)
            assert scheduler.aborted

    def test_forget_touches_only_the_transactions_own_rows(self):
        tracker = CurrencyTracker()
        tracker.on_write("T1", "x")
        tracker.on_read("T1", "x")
        tracker.on_read("T1", "y")
        tracker.on_read("T2", "y")
        tracker.on_write("T3", "z")
        tracker.forget("T1")
        assert tracker.last_writer == {"z": "T3"}
        assert tracker.readers_since_write == {
            "x": set(), "y": {"T2"}, "z": set()
        }
        assert tracker.current_transactions() == frozenset({"T2", "T3"})
        tracker.forget("T1")  # holding nothing: returns at once
        tracker.forget("never-seen")
        assert tracker.current_transactions() == frozenset({"T2", "T3"})

    def test_extract_and_absorb_move_holdings_and_candidates(self):
        """(h) a migrating group takes its holdings (with its rows) and
        its candidates (with its graph nodes) along."""
        source = create_scheduler("conflict-graph")
        source.feed_many([
            Begin("A1"), Write("A1", {"x"}),
            Begin("A2"), Write("A2", {"x"}),   # A1 lapses: candidate
            Begin("A3"), Read("A3", "x"),      # active reader
            Begin("B1"), Write("B1", {"y"}),
        ])
        target = create_scheduler("conflict-graph")
        payload = source.extract_group({"A1", "A2", "A3"}, {"x"})
        assert source.currency == _rebuilt(source)
        assert source.currency.current_transactions() == frozenset({"B1"})
        assert source.currency.idle_transactions() == frozenset()
        target.absorb_group(payload)
        assert target.currency == _rebuilt(target)
        assert target.currency.current_transactions() == frozenset(
            {"A2", "A3"}
        )
        assert _assert_in_lockstep(target) == frozenset({"A1"})

    def test_a_tracker_never_told_residency_has_no_candidates(self):
        """The selection's precondition, pinned: a hand-built tracker fed
        accesses only, beside a graph it was never told about, selects
        nothing — while the per-transaction test and the scan, which need
        no residency, still say T1 is noncurrent.  Telling the tracker
        (as every scheduler does) closes the gap."""
        tracker = CurrencyTracker()
        tracker.on_write("T1", "x")
        tracker.on_write("T2", "x")  # T1 lapses
        graph = ReducedGraph()
        for txn in ("T1", "T2"):
            graph.add_transaction(txn, TxnState.COMMITTED)
        assert is_noncurrent(tracker, graph, "T1")
        assert naive_noncurrent_transactions(tracker, graph) == {"T1"}
        assert noncurrent_transactions(tracker, graph) == frozenset()
        for txn in graph:
            tracker.on_enter(txn)
        assert noncurrent_transactions(tracker, graph) == {"T1"}

    def test_an_overwritten_writer_that_also_read_its_value_lapses_once(self):
        """``_release`` walks the reader row in place and the writer apart:
        a transaction in both loses the entity exactly once."""
        tracker = CurrencyTracker()
        for txn in ("T1", "T2"):
            tracker.on_enter(txn)
        tracker.on_write("T1", "x")
        tracker.on_read("T1", "x")
        tracker.on_read("T1", "y")
        tracker.on_write("T2", "x")
        assert tracker.is_current("T1")  # still reads y
        tracker.on_write("T2", "y")
        assert tracker.idle_transactions() == {"T1"}
        assert tracker.current_transactions() == {"T2"}

    def test_serialized_rows_are_unchanged_from_the_parent_commit(self):
        """(g) holdings, residency and candidates are derived state:
        ``currency_to_dict`` is byte-identical to the parent commit's."""
        assert _currency_digests() == GOLDEN_CURRENCY_DIGESTS

    def test_only_the_two_rows_are_serialized(self):
        scheduler = create_scheduler("conflict-graph")
        scheduler.feed_many(basic_stream(_config(3)))
        assert sorted(currency_to_dict(scheduler.currency)) == [
            "last_writer", "readers_since_write",
        ]


#: sha256 of ``currency_to_dict`` after fixed streams, computed at the
#: parent commit (eead3a6) by this same function.
_BASIC = "87a064195c11e3f6b666a2ae7b6bbc457d6658d7053b3616789c6f63cc4619ec"
GOLDEN_CURRENCY_DIGESTS = {
    # Deletions never change a decision, and on this stream the certifier
    # aborts the same transactions: one digest for the basic stream.
    "certifier/noncurrent": _BASIC,
    "conflict-graph/eager-c1": _BASIC,
    "conflict-graph/noncurrent": _BASIC,
    "multiwrite/lemma1": (
        "934769f3d339bf604b7826ae80d0c4359c60b79a7d389dc5badfac8f7305da23"
    ),
    "strict-2pl/never": (
        "49f8d57e84ba9ee5b8bed6f19d20ee2336bcd795c30a7c16ccd8207149bcfef3"
    ),
}


def _currency_digests():
    cases = [
        ("conflict-graph", "noncurrent", basic_stream),
        ("conflict-graph", "eager-c1", basic_stream),
        ("certifier", "noncurrent", basic_stream),
        ("multiwrite", "lemma1", multiwrite_stream),
        ("strict-2pl", "never", basic_stream),
    ]
    digests = {}
    for scheduler, policy, streamer in cases:
        engine = Engine(scheduler=scheduler, policy=policy, sweep_interval=3)
        engine.feed_batch(streamer(_config(1986, n_transactions=120)))
        text = json.dumps(
            currency_to_dict(engine.currency), separators=(",", ":")
        )
        digests[f"{scheduler}/{policy}"] = hashlib.sha256(
            text.encode()
        ).hexdigest()
    return digests


# ---------------------------------------------------------------------------
# Work-count guard
# ---------------------------------------------------------------------------


class TestSweepWorkDoesNotGrowWithTheRetainedSet:
    @staticmethod
    def _unmasked_per_sweep(monkeypatch, accounts: int):
        """Ids produced by ``nodes_of_mask`` per sweep over 2 000
        steady-state steps of the resident stream, and the retained size."""
        warm, timed = 5 * accounts, 2_000
        stream = _resident_stream(accounts, warm + timed, seed=11)
        engine = Engine(
            scheduler="conflict-graph", policy="noncurrent", sweep_interval=4
        )
        engine.feed_batch(stream[:warm])
        produced = 0
        original = BitClosureGraph.nodes_of_mask

        def counting(self, mask):
            nonlocal produced
            nodes = original(self, mask)
            produced += len(nodes)
            return nodes

        sweeps_before = engine.sweeps_run
        with monkeypatch.context() as patch:
            patch.setattr(BitClosureGraph, "nodes_of_mask", counting)
            engine.feed_batch(stream[warm:])
        sweeps = engine.sweeps_run - sweeps_before
        assert sweeps > 300
        return produced / sweeps, engine.graph.completed_count()

    def test_ids_unmasked_per_sweep_are_flat_in_the_retained_size(
        self, monkeypatch
    ):
        small, retained_small = self._unmasked_per_sweep(monkeypatch, 256)
        large, retained_large = self._unmasked_per_sweep(monkeypatch, 1024)
        assert 150 <= retained_small <= 300
        assert retained_large >= 3 * retained_small
        # At the parent commit every sweep unmasked the whole completed
        # set on top of the steps' own index reads, and the ratio was ~4.
        assert large <= 1.5 * small, (small, large)
