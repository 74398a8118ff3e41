"""Property tests: the copy-free hot paths equal the naive formulations.

Randomized (seeded) workloads — including aborts and deletions — are
replayed through every scheduler; at checkpoints along the stream each
optimized layer is compared against its from-scratch oracle in
:mod:`repro.core.reference`:

* cached tight-path queries vs. snapshot-BFS recomputation;
* inverted entity indexes vs. full node scans;
* the set-cloning ``copy()`` vs. the arc-by-arc legacy rebuild
  (``check_invariants`` asserts the cloned closure matches a recomputed
  one);
* trial deletions roll back to the exact pre-trial graph;
* dirty-set / gated engine sweeps delete byte-identically to the
  unconditional full-scan cadence.
"""

from __future__ import annotations

import random

import pytest

from repro.core.conditions import has_no_active_predecessors
from repro.core.policies import (
    EagerC1Policy,
    EagerC3Policy,
    EagerC4Policy,
    Lemma1Policy,
    NoncurrentPolicy,
)
from repro.core.reference import (
    legacy_copy,
    legacy_select_eager_c1,
    legacy_select_eager_c3,
    legacy_select_eager_c4,
    naive_accessors_of,
    naive_active_tight_predecessors,
    naive_completed_tight_successors,
    naive_noncurrent_transactions,
    naive_tight_predecessors,
    naive_tight_successors,
)
from repro.engine import Engine
from repro.errors import GraphError
from repro.io import graph_to_dict
from repro.model.status import AccessMode, TxnState
from repro.registry import create_policy, create_scheduler
from repro.workloads.generator import (
    WorkloadConfig,
    basic_stream,
    multiwrite_stream,
    predeclared_stream,
)

#: (scheduler, stream factory) for every graph-carrying scheduler; the
#: graph-less strict-2pl baseline is exercised in the engine test below.
GRAPH_CASES = [
    ("conflict-graph", basic_stream),
    ("certifier", basic_stream),
    ("multiwrite", multiwrite_stream),
    ("predeclared", predeclared_stream),
]

SEEDS = [3, 17, 91]


def _config(seed: int) -> WorkloadConfig:
    return WorkloadConfig(
        n_transactions=40,
        n_entities=8,
        multiprogramming=5,
        write_fraction=0.5,
        max_accesses=3,
        zipf_s=0.5,
        seed=seed,
    )


def _checkpoints(n_steps: int):
    """A handful of probe points spread over the stream."""
    return {n_steps // 4, n_steps // 2, (3 * n_steps) // 4, n_steps - 1}


class TestQueryEquivalence:
    @pytest.mark.parametrize("scheduler_name,stream_factory", GRAPH_CASES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tight_and_entity_queries_match_naive(
        self, scheduler_name, stream_factory, seed
    ):
        scheduler = create_scheduler(scheduler_name)
        stream = list(stream_factory(_config(seed)))
        rng = random.Random(seed)
        probes = _checkpoints(len(stream))
        deleted_any = False
        for index, step in enumerate(stream):
            scheduler.feed(step)
            if index not in probes:
                continue
            graph = scheduler.graph
            for txn in sorted(graph):
                assert graph.tight_predecessors(txn) == naive_tight_predecessors(
                    graph, txn
                )
                assert graph.tight_successors(txn) == naive_tight_successors(
                    graph, txn
                )
                assert graph.active_tight_predecessors(
                    txn
                ) == naive_active_tight_predecessors(graph, txn)
                assert graph.completed_tight_successors(
                    txn
                ) == naive_completed_tight_successors(graph, txn)
            entities = {e for t in graph for e in graph.info(t).accesses}
            for entity in sorted(entities):
                for mode in (AccessMode.READ, AccessMode.WRITE):
                    assert graph.accessors_of(entity, mode) == naive_accessors_of(
                        graph, entity, mode
                    )
            assert graph.writers_of("e1") == naive_accessors_of(
                graph, "e1", AccessMode.WRITE
            )
            graph.check_invariants()
            # Interleave deletions (via lemma1 — safe in every model) so
            # later probes exercise post-contraction caches and indexes.
            selection = Lemma1Policy().select(scheduler)
            if selection and rng.random() < 0.8:
                scheduler.delete_transactions(sorted(selection))
                deleted_any = True
                graph.check_invariants()
        assert deleted_any or len(scheduler.graph) >= 0  # smoke guard

    @pytest.mark.parametrize("seed", SEEDS)
    def test_noncurrent_matches_naive(self, seed):
        scheduler = create_scheduler("conflict-graph")
        stream = list(basic_stream(_config(seed)))
        probes = _checkpoints(len(stream))
        for index, step in enumerate(stream):
            scheduler.feed(step)
            if index in probes:
                policy = NoncurrentPolicy()
                assert policy.select(scheduler) == naive_noncurrent_transactions(
                    scheduler.currency, scheduler.graph
                )

    @pytest.mark.parametrize("scheduler_name,stream_factory", GRAPH_CASES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lemma1_matches_the_per_id_formulation(
        self, scheduler_name, stream_factory, seed
    ):
        """The mask-native walk over ``committed_mask`` selects, after every
        step, exactly what the per-id test selects: completed, not
        FINISHED, no active predecessors.  Multiwrite is where FINISHED
        bites, so the stream must retain some."""
        scheduler = create_scheduler(scheduler_name)
        policy = Lemma1Policy()
        saw_finished = deleted = 0
        for index, step in enumerate(stream_factory(_config(seed)), start=1):
            scheduler.feed(step)
            graph = scheduler.graph
            finished = {
                t for t in graph.completed_transactions()
                if graph.state(t) is TxnState.FINISHED
            }
            saw_finished += len(finished)
            expected = frozenset(
                t for t in graph.completed_transactions()
                if t not in finished and has_no_active_predecessors(graph, t)
            )
            assert policy.select(scheduler) == expected
            if index % 4 == 0:  # later steps see contracted graphs too
                scheduler.delete_transactions(sorted(expected))
                deleted += len(expected)
        assert deleted > 0
        if scheduler_name == "multiwrite":
            assert saw_finished > 0

    @pytest.mark.parametrize("scheduler_name,stream_factory", GRAPH_CASES)
    def test_aborts_keep_closure_invariants(self, scheduler_name, stream_factory):
        """The restricted remove_node_abort rebuild leaves no drift."""
        config = WorkloadConfig(
            n_transactions=30,
            n_entities=4,  # few entities => plenty of cycles and aborts
            multiprogramming=6,
            write_fraction=0.6,
            max_accesses=3,
            seed=5,
        )
        scheduler = create_scheduler(scheduler_name)
        aborted = 0
        for step in stream_factory(config):
            result = scheduler.feed(step)
            if result.aborted:
                aborted += len(result.aborted)
                scheduler.graph.check_invariants()
        if scheduler_name in ("conflict-graph", "multiwrite"):
            assert aborted > 0  # the workload really exercised aborts
        scheduler.graph.check_invariants()


class TestCopyAndTrial:
    @pytest.mark.parametrize("scheduler_name,stream_factory", GRAPH_CASES)
    def test_fast_copy_equals_legacy_rebuild(self, scheduler_name, stream_factory):
        scheduler = create_scheduler(scheduler_name)
        stream = list(stream_factory(_config(23)))
        scheduler.feed_many(stream[: 2 * len(stream) // 3])
        graph = scheduler.graph
        fast = graph.copy()
        slow = legacy_copy(graph)
        fast.check_invariants()  # cloned closure == recomputed closure
        # The fast copy is bit-exact (same interned-id layout, same masks);
        # the legacy rebuild is logically equal but re-interns nodes in
        # sorted order, so compare it on the id-independent sections.
        assert graph_to_dict(fast) == graph_to_dict(graph)
        original = graph_to_dict(graph)
        rebuilt = graph_to_dict(slow)
        for key in ("nodes", "arcs", "deleted", "aborted"):
            assert rebuilt[key] == original[key]
        # Independence: mutating the clone leaves the original untouched.
        victims = sorted(Lemma1Policy().select(scheduler))
        if victims:
            fast.delete(victims[0])
            assert victims[0] in graph

    def test_trial_rollback_restores_graph_exactly(self):
        scheduler = create_scheduler("predeclared")
        stream = list(predeclared_stream(_config(29)))
        scheduler.feed_many(stream[: len(stream) // 2])
        graph = scheduler.graph
        before = graph_to_dict(graph)
        with graph.trial_deletions():
            deletable = [
                txn
                for txn in sorted(graph.completed_transactions())
            ]
            for txn in deletable:
                graph.delete(txn)
            assert all(txn not in graph for txn in deletable)
        assert graph_to_dict(graph) == before
        graph.check_invariants()

    def test_trial_blocks_other_mutations(self):
        graph = create_scheduler("conflict-graph").graph
        graph.add_transaction("T1")
        with pytest.raises(GraphError):
            with graph.trial_deletions():
                graph.add_transaction("T2")
        # The failed trial rolled back; normal mutation works again.
        graph.add_transaction("T2")

    def test_trial_blocks_copy_and_serialization(self):
        """A mid-trial copy or snapshot would freeze trial deletions as
        permanent and clone/serialize detached interner slots."""
        from repro.errors import ModelError
        from repro.model.status import TxnState

        graph = create_scheduler("conflict-graph").graph
        graph.add_transaction("T1", TxnState.COMMITTED)
        graph.begin_trial()
        try:
            with pytest.raises(GraphError):
                graph.copy()
            with pytest.raises(ModelError):
                graph_to_dict(graph)
        finally:
            graph.rollback_trial()
        assert graph_to_dict(graph)["nodes"]  # fine again after rollback

    def test_nested_trials_rejected(self):
        graph = create_scheduler("conflict-graph").graph
        graph.begin_trial()
        with pytest.raises(GraphError):
            graph.begin_trial()
        graph.rollback_trial()


class TestPolicyEquivalence:
    """Engine dirty-set/gated sweeps vs. unconditional full scans, and the
    optimized eager policies vs. their legacy (copying) formulations."""

    ENGINE_CASES = [
        ("conflict-graph", "eager-c1", basic_stream),
        ("conflict-graph", "lemma1", basic_stream),
        ("conflict-graph", "noncurrent", basic_stream),
        ("certifier", "noncurrent", basic_stream),
        ("strict-2pl", "lemma1", basic_stream),
        ("multiwrite", "eager-c3", multiwrite_stream),
        ("multiwrite", "lemma1", multiwrite_stream),
        ("predeclared", "eager-c4", predeclared_stream),
        ("predeclared", "lemma1", predeclared_stream),
    ]

    @pytest.mark.parametrize("scheduler,policy,stream_factory", ENGINE_CASES)
    @pytest.mark.parametrize("interval", [1, 4])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_dirty_sweeps_delete_identically(
        self, scheduler, policy, stream_factory, interval, seed
    ):
        stream = list(stream_factory(_config(seed)))
        gated = Engine(
            scheduler=scheduler, policy=policy, sweep_interval=interval
        )
        full = Engine(
            scheduler=scheduler,
            policy=policy,
            sweep_interval=interval,
            skip_clean_sweeps=False,
        )
        # Force full scans on the reference engine even for
        # dirty-consuming policies.
        full._dirty_tracker = None
        gated.feed_batch(stream)
        full.feed_batch(stream)
        assert gated.stats.deleted_ids == full.stats.deleted_ids
        assert gated.stats.deletions == full.stats.deletions
        assert graph_to_dict(gated.graph) == graph_to_dict(full.graph)
        assert gated.sweeps_run + gated.sweeps_skipped == full.sweeps_run

    @pytest.mark.parametrize("seed", SEEDS)
    def test_eager_c1_matches_legacy(self, seed):
        scheduler = create_scheduler("conflict-graph")
        policy = EagerC1Policy()
        probes = _checkpoints(len(list(basic_stream(_config(seed)))))
        for index, step in enumerate(basic_stream(_config(seed))):
            scheduler.feed(step)
            if index in probes:
                new = policy.select(scheduler)
                assert new == legacy_select_eager_c1(scheduler.graph)
                scheduler.delete_transactions(sorted(new))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_eager_c4_matches_legacy(self, seed):
        scheduler = create_scheduler("predeclared")
        policy = EagerC4Policy()
        stream = list(predeclared_stream(_config(seed)))
        probes = _checkpoints(len(stream))
        for index, step in enumerate(stream):
            scheduler.feed(step)
            if index in probes:
                before = graph_to_dict(scheduler.graph)
                new = policy.select(scheduler)
                assert graph_to_dict(scheduler.graph) == before  # trial undone
                assert new == legacy_select_eager_c4(scheduler.graph)
                scheduler.delete_transactions(sorted(new))

    @pytest.mark.parametrize("seed", [3, 17])
    def test_eager_c3_matches_legacy(self, seed):
        config = WorkloadConfig(
            n_transactions=16,
            n_entities=6,
            multiprogramming=4,  # keep the 2^actives C3 search small
            write_fraction=0.5,
            max_accesses=3,
            seed=seed,
        )
        scheduler = create_scheduler("multiwrite")
        policy = EagerC3Policy(max_actives=8)
        stream = list(multiwrite_stream(config))
        probes = _checkpoints(len(stream))
        for index, step in enumerate(stream):
            scheduler.feed(step)
            if index in probes:
                new = policy.select(scheduler)
                assert new == legacy_select_eager_c3(
                    scheduler.graph, max_actives=8
                )
                scheduler.delete_transactions(sorted(new))

    def test_dirty_restricted_select_equals_full_scan(self):
        """Explicitly: restricting eager policies to the engine's dirty set
        never changes the selection (the core soundness claim)."""
        stream = list(basic_stream(_config(17)))
        engine = Engine(scheduler="conflict-graph", policy="eager-c1",
                        sweep_interval=4)
        checked = 0
        original_sweep = engine.sweep

        def checking_sweep():
            nonlocal checked
            if engine._dirty_tracker is not None:
                dirty = engine._dirty_tracker.snapshot()
                if dirty is not None:
                    full = engine.policy.select(engine.scheduler, dirty=None)
                    restricted = engine.policy.select(
                        engine.scheduler, dirty=dirty
                    )
                    assert restricted == full
                    checked += 1
            return original_sweep()

        engine.sweep = checking_sweep
        for step in stream:
            engine.feed(step)
        assert checked > 0

    def test_skip_counts_are_reported(self):
        stream = list(basic_stream(_config(3)))
        engine = Engine(scheduler="conflict-graph", policy="eager-c1")
        engine.feed_batch(stream)
        assert engine.sweeps_skipped > 0  # reads/begins trigger no scan
        assert engine.sweeps_run + engine.sweeps_skipped == len(stream)

    def test_policy_registry_unchanged_signatures(self):
        """Registry-built policies accept the dirty keyword (None = all)."""
        for name in ("never", "lemma1", "noncurrent", "eager-c1", "optimal"):
            policy = create_policy(name)
            scheduler = create_scheduler("conflict-graph")
            assert policy.select(scheduler, dirty=None) == frozenset()
