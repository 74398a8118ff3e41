"""The Engine façade: event hooks, batched sweeps, laziness, stats."""

from __future__ import annotations

import pytest

from repro.analysis.runner import run_with_policy
from repro.engine import (
    BatchResult,
    CallbackObserver,
    Engine,
    EngineConfig,
    EngineObserver,
    GcStats,
    SweepReport,
)
from repro.errors import UnsafeDeletionError
from repro.model.steps import Begin, Read, Write
from repro.scheduler.conflict import ConflictGraphScheduler
from repro.workloads.generator import (
    WorkloadConfig,
    basic_stream,
    predeclared_stream,
)
from repro.workloads.traces import example1_schedule

CONFIG = WorkloadConfig(n_transactions=30, n_entities=8, seed=7)


class RecordingObserver(EngineObserver):
    """Log every hook invocation, in order."""

    def __init__(self):
        self.events = []

    def on_step(self, engine, result):
        self.events.append(("step", result.step))

    def on_abort(self, engine, result, aborted):
        self.events.append(("abort", aborted))

    def on_commit(self, engine, result, committed):
        self.events.append(("commit", committed))

    def on_delete(self, engine, deleted, step_index):
        self.events.append(("delete", deleted))

    def on_sweep(self, engine, report):
        self.events.append(("sweep", report))

    def on_step_end(self, engine, result):
        self.events.append(("step_end", result.step))


class TestEventHooks:
    def test_hooks_fire_in_documented_order(self):
        observer = RecordingObserver()
        engine = Engine(
            scheduler="conflict-graph", policy="eager-c1",
            observers=[observer],
        )
        engine.feed_batch(example1_schedule())
        kinds = [kind for kind, _ in observer.events]
        # Every step produces step ... step_end brackets.
        assert kinds.count("step") == 8
        assert kinds.count("step_end") == 8
        # Interval 1: one sweep per step — minus the ones the engine
        # skipped because nothing could have become deletable.
        assert kinds.count("sweep") == 8 - engine.sweeps_skipped
        assert kinds.count("sweep") == engine.sweeps_run > 0
        assert "commit" in kinds and "delete" in kinds
        # Within one step, step comes first and step_end last.
        first_end = kinds.index("step_end")
        assert kinds.index("step") < first_end
        assert kinds.index("sweep") < first_end

    def test_abort_hook_sees_cascade(self):
        observer = RecordingObserver()
        engine = Engine(scheduler="conflict-graph", policy="never",
                        observers=[observer])
        engine.feed_batch(
            [Begin("T1"), Read("T1", "x"), Begin("T2"), Read("T2", "x"),
             Write("T2", {"x"}), Write("T1", {"x"})]
        )
        aborts = [payload for kind, payload in observer.events if kind == "abort"]
        assert aborts == [("T1",)]

    def test_callback_observer_and_subscribe(self):
        deleted = []
        engine = Engine(scheduler="conflict-graph", policy="eager-c1")
        engine.subscribe(
            CallbackObserver(on_delete=lambda e, ids, i: deleted.extend(ids))
        )
        engine.feed_batch(example1_schedule())
        assert deleted == list(engine.stats.deleted_ids)
        assert deleted  # something was forgotten

    def test_unsubscribe_stops_events(self):
        observer = RecordingObserver()
        engine = Engine(scheduler="conflict-graph", policy="never")
        engine.subscribe(observer)
        engine.feed(Begin("T1"))
        engine.unsubscribe(observer)
        engine.feed(Read("T1", "x"))
        assert len([k for k, _ in observer.events if k == "step"]) == 1


class TestBatchedSweeps:
    @pytest.mark.parametrize("interval", [2, 5, 16])
    def test_acceptance_unchanged_by_sweep_interval(self, interval):
        """Safe deletions never change what the scheduler accepts
        (Theorem 2), so the sweep cadence must not either."""
        stream = basic_stream(CONFIG)
        per_step = Engine(scheduler="conflict-graph", policy="eager-c1")
        batched = Engine(scheduler="conflict-graph", policy="eager-c1",
                         sweep_interval=interval)
        reference = per_step.feed_batch(stream)
        batch = batched.feed_batch(stream)
        assert [r.decision for r in batch.results] == [
            r.decision for r in reference.results
        ]
        assert batched.accepted_subschedule() == per_step.accepted_subschedule()

    def test_sweep_count_amortized(self):
        stream = basic_stream(CONFIG)
        engine = Engine(scheduler="conflict-graph", policy="eager-c1",
                        sweep_interval=8)
        batch = engine.feed_batch(stream)
        assert batch.sweeps == batch.steps_fed // 8
        assert engine.stats.policy_invocations == batch.sweeps

    def test_flush_forces_trailing_sweep(self):
        engine = Engine(scheduler="conflict-graph", policy="eager-c1",
                        sweep_interval=1000)
        batch = engine.feed_batch(example1_schedule(), flush=True)
        assert batch.sweeps == 1
        assert engine.steps_since_sweep == 0
        assert batch.deleted  # the flush sweep pruned something

    def test_manual_sweep(self):
        engine = Engine(scheduler="conflict-graph", policy="eager-c1",
                        sweep_interval=1000)
        engine.feed_batch(example1_schedule())
        assert engine.stats.deletions == 0
        selected = engine.sweep()
        assert selected and engine.stats.deletions == len(selected)

    def test_batch_result_totals(self):
        stream = basic_stream(CONFIG)
        engine = Engine(scheduler="conflict-graph", policy="eager-c1",
                        sweep_interval=4)
        batch = engine.feed_batch(stream)
        assert isinstance(batch, BatchResult)
        assert batch.steps_fed == len(stream)
        assert (batch.accepted + batch.rejected + batch.delayed
                + batch.ignored) == batch.steps_fed
        assert batch.deleted == tuple(engine.stats.deleted_ids)
        assert set(batch.aborted) == set(engine.aborted)
        assert batch.summary()["sweeps"] == batch.sweeps

    def test_verify_c2_still_guards_batched_sweeps(self):
        from repro.core.policies import NeverDeletePolicy

        class RoguePolicy(NeverDeletePolicy):
            name = "rogue"

            def select(self, scheduler):
                return frozenset(scheduler.graph.completed_transactions())

        engine = Engine.from_parts(
            ConflictGraphScheduler(), RoguePolicy(),
            sweep_interval=4, verify_c2=True,
        )
        with pytest.raises(UnsafeDeletionError):
            engine.feed_batch(example1_schedule())


class TestLazyFeeding:
    def test_feed_many_interleaves_with_generator(self):
        """Regression: the input iterable must be consumed step-by-step,
        not materialized up front."""
        log = []

        def workload():
            for step in example1_schedule():
                log.append(("yield", step))
                yield step

        engine = Engine(
            scheduler="conflict-graph", policy="never",
            observers=[CallbackObserver(
                on_step=lambda e, r: log.append(("process", r.step))
            )],
        )
        batch = engine.feed_batch(workload())
        assert batch.steps_fed == 8
        # Strict alternation: yield T, process T, yield U, process U, ...
        for i in range(0, len(log), 2):
            assert log[i][0] == "yield" and log[i + 1][0] == "process"
            assert log[i][1] is log[i + 1][1]

    def test_scheduler_feed_many_accepts_generator(self):
        log = []

        class Spy(ConflictGraphScheduler):
            def feed(self, step):
                log.append(("process", step))
                return super().feed(step)

        def workload():
            for step in example1_schedule():
                log.append(("yield", step))
                yield step

        scheduler = Spy()
        results = scheduler.feed_many(workload())
        assert len(results) == 8
        assert [kind for kind, _ in log] == ["yield", "process"] * 8

    def test_run_with_policy_accepts_generator(self):
        stream = basic_stream(CONFIG)
        metrics = run_with_policy(
            "conflict-graph", iter(list(stream)), "eager-c1", audit_csr=True
        )
        total = (metrics.accepted_steps + metrics.rejected_steps
                 + metrics.delayed_steps + metrics.ignored_steps)
        assert total == len(stream)

    def test_predeclared_engine_generator(self):
        stream = predeclared_stream(
            WorkloadConfig(n_transactions=10, n_entities=5, seed=3)
        )
        engine = Engine(scheduler="predeclared", policy="eager-c4",
                        sweep_interval=4)
        batch = engine.feed_batch(iter(list(stream)))
        assert batch.steps_fed == len(stream)


class TestStats:
    def test_stats_dict_includes_deleted_ids(self):
        """Regression for the GcStats.as_dict omission: serialized stats
        must match the dataclass, deleted_ids included."""
        engine = Engine(scheduler="conflict-graph", policy="eager-c1")
        engine.feed_batch(example1_schedule())
        payload = engine.stats.as_dict()
        assert payload["deleted_ids"] == list(engine.stats.deleted_ids)
        assert payload["deleted_ids"]  # non-empty on this trace
        assert set(payload) == {
            "steps_fed", "deletions", "policy_invocations",
            "peak_graph_size", "peak_retained_completed", "deleted_ids",
        }
        assert GcStats.from_dict(payload) == engine.stats

    def test_run_with_policy_mixed_paths_model_checked(self):
        """A registry name in either slot opts into model validation, even
        when the other side is an instance (regression: the mixed paths
        used to skip the check and apply the wrong safety condition)."""
        from repro.core.policies import EagerC1Policy
        from repro.errors import IncompatiblePolicyError
        from repro.scheduler.predeclared import PredeclaredScheduler

        stream = predeclared_stream(
            WorkloadConfig(n_transactions=6, n_entities=4, seed=2)
        )
        with pytest.raises(IncompatiblePolicyError):
            run_with_policy(PredeclaredScheduler(), stream, "eager-c1")
        with pytest.raises(IncompatiblePolicyError):
            run_with_policy("predeclared", stream, EagerC1Policy())
        # Unregistered custom types stay permissive (the from_parts path).
        class LocalPolicy(EagerC1Policy):
            name = "local-c1"

        run_with_policy(
            "conflict-graph", basic_stream(CONFIG), LocalPolicy()
        )

    def test_run_with_policy_sweep_interval_invocations(self):
        stream = basic_stream(CONFIG)
        metrics = run_with_policy(
            "conflict-graph", stream, "eager-c1", sweep_interval=8
        )
        assert metrics.policy_invocations == len(stream) // 8

    def test_engine_config_replacement_overrides(self):
        config = EngineConfig(scheduler="conflict-graph", policy="never")
        engine = Engine(config, sweep_interval=5)
        assert engine.sweep_interval == 5
        assert engine.config.policy == "never"


class TestHookDispatchLists:
    """The dispatch fast path: hooks nobody overrides are never dispatched."""

    def test_unoverridden_hooks_have_empty_handler_lists(self):
        engine = Engine(scheduler="conflict-graph", policy="never")
        # The built-in StatsObserver does not observe aborts or commits.
        assert engine._hooks["on_abort"] == []
        assert engine._hooks["on_commit"] == []
        assert engine._hooks["on_step"] != []
        assert engine._hooks["on_step_end"] != []

    def test_subscribe_and_unsubscribe_rebuild_the_lists(self):
        engine = Engine(scheduler="conflict-graph", policy="never")
        seen = []
        observer = CallbackObserver(
            on_commit=lambda e, result, committed: seen.extend(committed)
        )
        engine.subscribe(observer)
        assert len(engine._hooks["on_commit"]) == 1
        assert engine._hooks["on_abort"] == []  # still nobody
        engine.feed(Begin("T1"))
        engine.feed(Write("T1", {"x"}))
        assert seen == ["T1"]
        engine.unsubscribe(observer)
        assert engine._hooks["on_commit"] == []
        engine.feed(Begin("T2"))
        engine.feed(Write("T2", {"y"}))
        assert seen == ["T1"]  # no further dispatch

    def test_subclass_overrides_are_detected(self):
        class AbortWatcher(EngineObserver):
            def __init__(self):
                self.aborts = []

            def on_abort(self, engine, result, aborted):
                self.aborts.extend(aborted)

        watcher = AbortWatcher()
        engine = Engine(
            scheduler="conflict-graph", policy="never", observers=[watcher]
        )
        assert len(engine._hooks["on_abort"]) == 1
        for step in (Begin("T1"), Read("T1", "x"),
                     Begin("T2"), Read("T2", "x"), Write("T2", {"x"})):
            engine.feed(step)
        engine.feed(Write("T1", {"x"}))  # cycle: T1 aborts
        assert watcher.aborts == ["T1"]
