"""Schema, contract and smoke tests for the step-cost ledger.

Run with ``python -m pytest benchmarks/ledger``; the smoke fixtures run
every workload (untraced and traced) at ~1/50 size against a real
``repro serve`` subprocess.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter

import pytest

import compare
import measure
import run as runner
import traced
from streams import banking_steps, interleave_windowed

from repro.model.schedule import interleave
from repro.model.steps import Begin
from repro.workloads import WorkloadConfig, basic_specs

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = runner.load_spec()


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert SPEC["command"][-1] == "benchmarks/ledger/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# -- streams -----------------------------------------------------------------


def _check_interleaving(specs, steps, cap):
    """The contract both interleavers promise."""
    expected = Counter(step for spec in specs for step in spec.steps())
    assert Counter(steps) == expected, "every step exactly once"
    position = {spec.txn: 0 for spec in specs}
    own = {spec.txn: spec.steps() for spec in specs}
    in_flight = 0
    for step in steps:
        assert own[step.txn][position[step.txn]] == step, "own order kept"
        if isinstance(step, Begin):
            assert cap is None or in_flight < cap, "BEGIN withheld at the cap"
            in_flight += 1
        position[step.txn] += 1
        if position[step.txn] == len(own[step.txn]):
            in_flight -= 1


@pytest.mark.parametrize("cap", [None, 1, 3, 8])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_windowed_interleaver_keeps_the_library_contract(seed, cap):
    specs = basic_specs(WorkloadConfig(
        n_transactions=40, n_entities=12, max_accesses=4, seed=seed))
    _check_interleaving(specs, interleave_windowed(specs, seed, cap), cap)
    # the library's quadratic interleaver, same contract, same checker
    _check_interleaving(specs, list(interleave(specs, seed, cap)), cap)


def test_windowed_interleaver_is_seeded_and_chooses_among_admissible():
    specs = basic_specs(WorkloadConfig(n_transactions=30, n_entities=12,
                                       seed=3))
    assert interleave_windowed(specs, 5, 4) == interleave_windowed(specs, 5, 4)
    seconds = {interleave_windowed(specs, seed, 4)[1].txn
               for seed in range(40)}
    # after T1's BEGIN both "T1 continues" and "T2 begins" are admissible
    assert seconds == {"T1", "T2"}


def test_windowed_interleaver_is_linear():
    """66k steps in well under the quadratic one's 6.6k-step time."""
    started = time.perf_counter()
    steps = banking_steps(seed=1, n_steps=66_000, n_accounts=512)
    assert len(steps) == 66_000
    assert time.perf_counter() - started < 5.0


# -- measurement rules ---------------------------------------------------------


def test_a_reported_tail_has_ten_samples_beyond_it():
    assert measure.tail_quantile(20_000) == ("p999", 0.999)
    assert measure.tail_quantile(5_000) == ("p99", 0.99)
    assert measure.tail_quantile(20_000, cap=0.99) == ("p99", 0.99)
    assert measure.tail_quantile(200) == ("p90", 0.90)
    assert measure.tail_quantile(50) == ("p50", 0.50)


def test_windowed_percentile_reports_the_least_disturbed_window():
    quiet, disturbed = [1.0] * 400, [3.0] * 400
    value, windows = measure.windowed_percentile(quiet + disturbed, 0.5)
    assert (value, windows) == (1.0, 16)
    # too few samples for sixteen windows of a p99: fewer, larger windows
    assert measure.windowed_percentile(list(range(2_500)), 0.99)[1] == 2
    assert measure.windowed_percentile([5.0, 1.0, 3.0], 0.5) == (3.0, 1)


def test_windows_drop_the_first_window():
    ticks = iter([0.0, 1.0, 2.0, 3.0])
    windows = measure.Windows(lambda: next(ticks))
    for _ in range(4):
        windows.mark()
    series = windows.series(100)
    assert len(series["steps_per_s"]) == 2
    assert series["cpu_us_per_step"] == [1e4, 1e4]


# -- compare -------------------------------------------------------------------


def _records(path, workload, metric, values):
    with open(path, "w") as handle:
        for value in values:
            handle.write(json.dumps({
                "workload": workload, "trace": 0, "failed": 0,
                "metrics": {metric: {"value": value, "unit": "x"}},
            }) + "\n")
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    steady = [100, 101, 99, 100, 102]
    a = _records(tmp_path / "a", "serve_step", "cpu_us_per_step", steady)
    same = _records(tmp_path / "b", "serve_step", "cpu_us_per_step",
                    [v * 1.02 for v in steady])
    worse = _records(tmp_path / "c", "serve_step", "cpu_us_per_step",
                     [v * 1.5 for v in steady])
    noisy = _records(tmp_path / "d", "serve_step", "cpu_us_per_step",
                     [60, 100, 140, 90, 130])
    assert compare.main([a, same]) == 0
    assert " ok" in capsys.readouterr().out
    assert compare.main([a, worse]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "(base 100)" in out
    assert compare.main([a, noisy]) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([noisy]) == 1  # its own spread is wider than the bound
    assert "TOO WIDE" in capsys.readouterr().out


# -- smoke: every workload, untraced and traced ----------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.jsonl"
    started = time.perf_counter()
    code = runner.main(["--smoke", "--out", str(out)])
    elapsed = time.perf_counter() - started
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return code, elapsed, records


@pytest.fixture(scope="module")
def smoke_traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "traced.jsonl"
    code = runner.main(["--smoke", "--traced", "--out", str(out)])
    return code, [json.loads(line) for line in out.read_text().splitlines()]


def test_smoke_reports_every_end_to_end_metric(smoke):
    code, elapsed, records = smoke
    assert code == 0
    assert elapsed < 30.0
    assert [r["workload"] for r in records] == [
        w["name"] for w in SPEC["workloads"]]
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for record in records:
        assert record["correct"] and record["failed"] == 0
        assert record["attempted"] >= 1
        assert {n: e["unit"] for n, e in record["metrics"].items()} == wanted
        assert all(e["value"] > 0 for e in record["metrics"].values())
        assert not any(gate["failed"] for gate in record["gates"])
        env = record["environment"]
        assert {"nproc", "python", "commit", "seed", "loadavg_1m"} <= set(env)
        assert record["windows"]["setup_s"]


def test_smoke_reports_every_per_layer_metric(smoke_traced):
    code, records = smoke_traced
    assert code == 0
    wanted = {m["name"] for m in SPEC["per_layer"]}
    for record in records:
        assert record["correct"]
        assert set(record["metrics"]) == wanted
    by_name = {r["workload"]: r["metrics"] for r in records}
    # a layer a workload never enters reads 0 there, and is measured
    # where it does the work
    assert by_name["engine_resident"]["durability.append_us_per_record"][
        "value"] == 0
    assert by_name["serve_step"]["durability.append_us_per_record"][
        "value"] > 0
    assert by_name["engine_resident"]["server.wire_us_per_request"][
        "value"] == 0
    assert by_name["serve_bulk_read"]["sharding.route_us_per_step"][
        "value"] > 0
    assert by_name["recover_replay"]["durability.chain_links_loaded"][
        "value"] > 0


@pytest.mark.parametrize(
    "workload", ["serve_step", "engine_resident", "serve_bulk_read"])
def test_written_spans_resolve_and_self_times_are_non_negative(
        smoke_traced, workload):
    path = traced.SPANS_DIR / f"spans-{workload}.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans
    child_ns = [0] * len(spans)
    for index, (name, start, end, parent, step) in enumerate(spans):
        assert isinstance(name, str) and end >= start and step >= 0
        assert -1 <= parent < index, "a parent is recorded before its child"
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
            child_ns[parent] += end - start
    for (name, start, end, _parent, _step), children in zip(spans, child_ns):
        assert end - start - children >= 0, f"negative self time in {name}"
