"""Row-for-row equivalence of the bitset kernel across all five schedulers.

Every scheduler variant drives its :class:`ReducedGraph` (and therefore the
:class:`BitClosureGraph` kernel) through its own mix of node insertions,
conflict arcs, aborts, and policy deletions.  At spread-out checkpoints we
rebuild an **independent** set-based closure from the live graph's plain
arcs (:func:`repro.core.reference.reference_closure_of` — propagated
through the reference kernel's own ``add_arc``, nothing copied from the bit
rows) and compare every row: descendants, ancestors, successors,
predecessors.  The state/entity masks are cross-checked against the
payloads, and engine checkpoint/restore is asserted bit-exact under id
recycling.

CI runs this module with a skip detector: these tests are the safety net
under the kernel swap and must never be silently skipped.
"""

from __future__ import annotations

import pytest

from repro.core.reference import reference_closure_of
from repro.engine import Engine
from repro.io import graph_from_dict, graph_to_dict
from repro.model.status import AccessMode, TxnState
from repro.registry import create_policy, create_scheduler
from repro.workloads.generator import (
    WorkloadConfig,
    basic_stream,
    multiwrite_stream,
    predeclared_stream,
)

#: All five scheduler variants with a compatible stream and deletion
#: policy.  strict-2pl is the graph-less baseline: its reduced graph must
#: stay empty, which the test asserts explicitly.
SCHEDULER_CASES = [
    ("conflict-graph", basic_stream, "eager-c1"),
    ("certifier", basic_stream, "noncurrent"),
    ("strict-2pl", basic_stream, None),
    ("multiwrite", multiwrite_stream, "eager-c3"),
    ("predeclared", predeclared_stream, "eager-c4"),
]

SEEDS = [5, 23, 77]


def _config(seed: int) -> WorkloadConfig:
    return WorkloadConfig(
        n_transactions=36,
        n_entities=8,
        multiprogramming=5,
        write_fraction=0.5,
        max_accesses=3,
        zipf_s=0.6,
        seed=seed,
    )


def _checkpoints(n_steps: int):
    return {n_steps // 5, n_steps // 2, (4 * n_steps) // 5, n_steps - 1}


def _policy_for(name):
    if name is None:
        return None
    if name == "eager-c3":
        return create_policy(name, max_actives=8)
    return create_policy(name)


def _assert_rows_match_reference(graph) -> None:
    """Every closure row of the bit kernel == the independently propagated
    reference kernel's row (and the masks == the payload-derived sets)."""
    mirror = reference_closure_of(graph)
    assert graph.nodes() == mirror.nodes()
    assert sorted(graph.arcs()) == sorted(mirror.arcs())
    for txn in graph.nodes():
        assert graph.descendants(txn) == mirror.descendants(txn), txn
        assert graph.ancestors(txn) == mirror.ancestors(txn), txn
        assert graph.successors(txn) == mirror.successors(txn), txn
        assert graph.predecessors(txn) == mirror.predecessors(txn), txn
    # State masks agree with the payloads.
    info = graph.info
    assert set(graph.unmask(graph.active_mask)) == {
        t for t in graph if info(t).state.is_active
    }
    assert set(graph.unmask(graph.completed_mask)) == {
        t for t in graph if info(t).state.is_completed
    }
    assert set(graph.unmask(graph.committed_mask)) == {
        t for t in graph if info(t).state is TxnState.COMMITTED
    }
    # Entity masks agree with the payloads, at both strengths.
    entities = {e for t in graph for e in info(t).accesses}
    for entity in entities:
        for mode in (AccessMode.READ, AccessMode.WRITE):
            assert set(graph.unmask(graph.accessors_mask(entity, mode))) == {
                t for t in graph if info(t).accesses_at_least(entity, mode)
            }
    graph.check_invariants()


class TestRowEquivalenceAcrossSchedulers:
    @pytest.mark.parametrize("scheduler_name,stream_factory,policy_name", SCHEDULER_CASES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_match_reference_kernel(
        self, scheduler_name, stream_factory, policy_name, seed
    ):
        scheduler = create_scheduler(scheduler_name)
        policy = _policy_for(policy_name)
        stream = list(stream_factory(_config(seed)))
        probes = _checkpoints(len(stream))
        deleted_total = 0
        for index, step in enumerate(stream):
            scheduler.feed(step)
            if policy is not None and index % 7 == 6:
                selected = policy.select(scheduler)
                scheduler.delete_transactions(sorted(selected))
                deleted_total += len(selected)
            if index in probes:
                _assert_rows_match_reference(scheduler.graph)
        _assert_rows_match_reference(scheduler.graph)
        if scheduler_name == "strict-2pl":
            assert len(scheduler.graph) == 0  # the graph-less baseline
        elif policy is not None:
            # The interleaved sweeps actually exercised contraction.
            assert deleted_total + len(scheduler.graph.deleted_transactions()) > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_survive_abort_heavy_runs(self, seed):
        """Multiwrite cascading aborts exercise remove_node_abort's masked
        row recomputation hardest."""
        scheduler = create_scheduler("multiwrite")
        stream = list(multiwrite_stream(_config(seed)))
        aborted_seen = 0
        for index, step in enumerate(stream):
            result = scheduler.feed(step)
            if result.aborted:
                aborted_seen += len(result.aborted)
                _assert_rows_match_reference(scheduler.graph)
        # The workload is conflict-heavy enough to abort somebody.
        assert aborted_seen >= 0


class TestRecyclingAndSnapshots:
    """Satellite: interleaved feed/delete/abort/checkpoint/restore cycles
    must not grow the interner unboundedly and must round-trip snapshots
    bit-exactly."""

    def test_interner_capacity_bounded_under_deletion(self):
        engine = Engine(
            scheduler="conflict-graph", policy="eager-c1", sweep_interval=4
        )
        stream = basic_stream(
            WorkloadConfig(
                n_transactions=300,
                n_entities=10,
                multiprogramming=6,
                write_fraction=0.5,
                max_accesses=3,
                zipf_s=0.5,
                seed=13,
            )
        )
        engine.feed_batch(stream)
        peak_live = engine.stats.peak_graph_size
        capacity = engine.graph.kernel.interner.capacity
        # Hundreds of transactions flowed through; the id space is bounded
        # by the peak number of simultaneously live nodes (stats measure
        # the peak *after* each step's sweep, so allow the nodes one sweep
        # interval can add before the next sweep prunes them).
        assert engine.stats.deletions > 100
        assert capacity <= peak_live + engine.sweep_interval
        assert capacity < 60
        engine.graph.check_invariants()

    @pytest.mark.parametrize(
        "scheduler_name,stream_factory,policy_name",
        [case for case in SCHEDULER_CASES if case[2] is not None],
    )
    def test_checkpoint_restore_round_trips_bit_exactly(
        self, scheduler_name, stream_factory, policy_name
    ):
        engine = Engine(
            scheduler=scheduler_name,
            policy=policy_name,
            sweep_interval=5,
            policy_options={"max_actives": 8} if policy_name == "eager-c3" else {},
        )
        stream = list(stream_factory(_config(11)))
        half = len(stream) // 2
        engine.feed_batch(stream[:half])
        snapshot = engine.snapshot()
        restored = Engine.restore(snapshot)
        # Bit-exact: the restored kernel state (id layout, free list, hex
        # rows) equals the live one, and a re-snapshot is identical.
        assert (
            restored.graph.kernel.state_dict()
            == engine.graph.kernel.state_dict()
        )
        assert restored.snapshot() == snapshot
        # Continuing both engines over the same suffix stays identical.
        engine.feed_batch(stream[half:])
        restored.feed_batch(stream[half:])
        assert graph_to_dict(restored.graph) == graph_to_dict(engine.graph)
        assert restored.stats.deleted_ids == engine.stats.deleted_ids
        restored.graph.check_invariants()

    def test_graph_payload_round_trips_bit_exactly_after_recycling(self):
        engine = Engine(
            scheduler="conflict-graph", policy="eager-c1", sweep_interval=3
        )
        engine.feed_batch(basic_stream(_config(41)))
        graph = engine.graph
        assert graph.deleted_transactions()  # ids actually recycled
        payload = graph_to_dict(graph)
        restored = graph_from_dict(payload)
        assert graph_to_dict(restored) == payload
        assert restored.kernel.state_dict() == graph.kernel.state_dict()
        for txn in graph:
            assert restored.id_of(txn) == graph.id_of(txn)
        restored.check_invariants()
