"""Tests for the adoption layer: ``Engine.from_parts``, serialization,
rendering, CLI."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.analysis.visualize import render_ascii, render_dot
from repro.cli import main as cli_main
from repro.core.policies import EagerC1Policy, NeverDeletePolicy
from repro.engine import Engine
from repro.errors import ModelError, UnsafeDeletionError
from repro.io import (
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    schedule_from_list,
    schedule_to_list,
)
from repro.model.schedule import Schedule
from repro.model.status import AccessMode
from repro.model.steps import BeginDeclared, Read
from repro.scheduler.conflict import ConflictGraphScheduler
from repro.workloads.generator import WorkloadConfig, basic_stream, predeclared_stream
from repro.workloads.traces import example1_graph, example1_schedule

from tests.conftest import basic_step_streams, graph_from_stream


class TestEngineFromParts:
    def test_loop_deletes_and_counts(self):
        gc = Engine.from_parts(
            ConflictGraphScheduler(), EagerC1Policy(), verify_c2=True
        )
        gc.feed_many(example1_schedule())
        assert gc.stats.deletions >= 1
        assert gc.stats.steps_fed == len(example1_schedule())
        assert gc.stats.peak_graph_size >= len(gc.graph)
        assert "eager-c1" in repr(gc)

    def test_default_policy_keeps_everything(self):
        gc = Engine.from_parts(ConflictGraphScheduler())
        gc.feed_many(example1_schedule())
        assert gc.stats.deletions == 0
        assert len(gc.graph.completed_transactions()) == 2

    def test_verify_c2_catches_rogue_policy(self):
        class RoguePolicy(NeverDeletePolicy):
            name = "rogue"

            def select(self, scheduler):
                return frozenset(scheduler.graph.completed_transactions())

        gc = Engine.from_parts(
            ConflictGraphScheduler(), RoguePolicy(), verify_c2=True
        )
        with pytest.raises(UnsafeDeletionError):
            gc.feed_many(example1_schedule())

    def test_stats_dict(self):
        gc = Engine.from_parts(ConflictGraphScheduler(), EagerC1Policy())
        gc.feed_many(example1_schedule())
        payload = gc.stats.as_dict()
        assert payload["steps_fed"] == 8
        assert payload["deletions"] == gc.stats.deletions

    def test_on_long_stream_matches_runner(self):
        config = WorkloadConfig(n_transactions=25, n_entities=6, seed=4)
        stream = basic_stream(config)
        gc = Engine.from_parts(
            ConflictGraphScheduler(), EagerC1Policy(), verify_c2=True
        )
        gc.feed_many(stream)
        from repro.analysis.serializability import is_conflict_serializable

        assert is_conflict_serializable(gc.accepted_subschedule())


class TestGraphSerialization:
    def test_round_trip_example1(self):
        graph = example1_graph()
        restored = graph_from_json(graph_to_json(graph))
        assert restored.nodes() == graph.nodes()
        assert set(restored.arcs()) == set(graph.arcs())
        for txn in graph.nodes():
            assert restored.info(txn).state == graph.info(txn).state
            assert restored.info(txn).accesses == graph.info(txn).accesses

    def test_round_trip_preserves_bookkeeping(self):
        graph = example1_graph()
        graph.delete("T2")
        restored = graph_from_json(graph_to_json(graph))
        assert restored.deleted_transactions() == frozenset({"T2"})
        with pytest.raises(Exception):
            restored.add_transaction("T2")

    def test_round_trip_futures_and_reads_from(self):
        from repro.workloads.traces import example2_graph

        _, graph = example2_graph()
        graph.info("B").reads_from.add("A")
        restored = graph_from_dict(graph_to_dict(graph))
        assert restored.info("A").future == {"y": AccessMode.READ}
        assert restored.info("B").reads_from == {"A"}

    def test_bad_format_rejected(self):
        with pytest.raises(ModelError):
            graph_from_dict({"format": 99, "nodes": [], "arcs": []})

    @given(basic_step_streams(max_txns=4, max_entities=3, max_steps=14))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random_graphs(self, steps):
        graph = graph_from_stream(steps)
        restored = graph_from_json(graph_to_json(graph))
        assert restored.nodes() == graph.nodes()
        assert set(restored.arcs()) == set(graph.arcs())
        for txn in graph.nodes():
            assert restored.info(txn).accesses == graph.info(txn).accesses


class TestScheduleSerialization:
    def test_round_trip_basic(self):
        schedule = example1_schedule()
        assert schedule_from_list(schedule_to_list(schedule)) == schedule

    def test_round_trip_predeclared(self):
        config = WorkloadConfig(n_transactions=5, n_entities=4, seed=3)
        schedule = predeclared_stream(config)
        assert schedule_from_list(schedule_to_list(schedule)) == schedule

    def test_json_safe(self):
        payload = json.dumps(schedule_to_list(example1_schedule()))
        assert schedule_from_list(json.loads(payload)) == example1_schedule()

    def test_unknown_kind(self):
        with pytest.raises(ModelError):
            schedule_from_list([{"kind": "mystery"}])


class TestVisualize:
    def test_ascii_shows_states_and_accesses(self):
        text = render_ascii(example1_graph())
        assert "[A] T1 (rx) -> T2, T3" in text
        assert "[C] T3 (wx)" in text

    def test_ascii_shows_future_with_question_mark(self):
        from repro.workloads.traces import example2_graph

        _, graph = example2_graph()
        text = render_ascii(graph)
        assert "ry?" in text  # A's declared future read of y

    def test_ascii_mentions_deleted(self):
        graph = example1_graph()
        graph.delete("T2")
        assert "deleted: T2" in render_ascii(graph)

    def test_dot_styles_by_state(self):
        dot = render_dot(example1_graph())
        assert "doublecircle" in dot  # active T1
        assert '"T1" -> "T2";' in dot

    def test_dot_dashes_dependency_arcs(self):
        from repro.core.reduced_graph import ReducedGraph
        from repro.model.status import TxnState

        graph = ReducedGraph()
        graph.add_transaction("W")
        graph.add_transaction("R")
        graph.add_arc("W", "R")
        graph.info("R").reads_from.add("W")
        assert '"W" -> "R" [style=dashed];' in render_dot(graph)


class TestCli:
    def test_demo(self, capsys):
        assert cli_main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "C2({T2, T3}) = False" in out

    def test_run_conflict(self, capsys):
        code = cli_main(
            ["run", "--transactions", "12", "--entities", "5", "--seed", "2"]
        )
        assert code == 0
        assert "graph size" in capsys.readouterr().out

    def test_run_every_scheduler(self, capsys):
        pairs = [
            ("conflict", "eager-c1"),
            ("certifier", "never"),
            ("2pl", "never"),
            ("multiwrite", "eager-c3"),
            ("predeclared", "eager-c4"),
        ]
        for scheduler, policy in pairs:
            code = cli_main(
                ["run", "--scheduler", scheduler, "--policy", policy,
                 "--transactions", "10", "--entities", "5"]
            )
            assert code == 0, (scheduler, policy)

    def test_compare(self, capsys):
        assert cli_main(["compare", "--transactions", "15", "--entities", "5"]) == 0
        out = capsys.readouterr().out
        assert "eager-c1" in out and "never" in out

    def test_dump_formats(self, capsys):
        for fmt, marker in [("ascii", "->"), ("dot", "digraph"), ("json", '"arcs"')]:
            code = cli_main(
                ["dump", "--format", fmt, "--transactions", "6", "--entities", "4"]
            )
            assert code == 0
            assert marker in capsys.readouterr().out

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])
