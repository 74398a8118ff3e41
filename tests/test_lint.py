"""The invariant analyzer (:mod:`repro.lint`).

Three layers are pinned here:

* **Per-rule behavior** — every rule fires on a seeded violation compiled
  from a string fixture and stays quiet on the fixed version of the same
  snippet.  Fixtures are self-contained strings (not repo files), so a
  rule regression is diagnosable from this file alone.
* **The machinery** — pragma suppression (same-line and line-above),
  line-shift-stable fingerprints, the baseline store's accept/partition
  cycle, the JSON report schema (including the fingerprint recomputation
  that makes hand-edited reports fail), and the CLI's did-you-mean /
  exit-code contract.
* **The live tree** — the shipped source must lint clean (zero
  non-baseline findings).  This is the CI gate: a refactor that breaks a
  standing contract fails here, with the finding text as the diagnosis.
  CI must-run guard: `lint_self_run` below may never be skipped.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import textwrap

import pytest

from repro.lint import (
    Finding,
    all_rules,
    load_baseline,
    partition_findings,
    report_payload,
    run_rules,
    validate_payload,
    write_baseline,
)
from repro.lint.cli import add_lint_arguments, default_root, run as lint_run
from repro.lint.framework import SourceUnit
from repro.lint.rules import (
    BlockingInAsyncRule,
    DeterminismRule,
    EpochBumpRule,
    FaultSiteCoverageRule,
    HygieneArtifactsRule,
    RawSyscallRule,
    SnapshotCompletenessRule,
)


def unit(path: str, source: str) -> SourceUnit:
    return SourceUnit(path, textwrap.dedent(source))


def findings_for(rule, *units, root=None):
    run = run_rules(list(units), [rule], root=root)
    return run.findings


# ---------------------------------------------------------------------------
# raw-syscall
# ---------------------------------------------------------------------------


RAW_BAD = """
    import os

    def persist(path, text):
        with open(path, "w") as handle:
            handle.write(text)
            os.fsync(handle.fileno())
        os.replace(path, path + ".pub")
"""

RAW_GOOD = """
    def persist(io, path, text):
        io.write_checkpoint(path, text)
"""


class TestRawSyscall:
    def test_fires_on_raw_calls(self):
        found = findings_for(RawSyscallRule(), unit("durability.py", RAW_BAD))
        assert {f.line for f in found} == {5, 7, 8}
        assert all(f.rule == "raw-syscall" for f in found)
        assert "StorageIO" in found[0].message

    def test_quiet_on_fixed_version(self):
        assert not findings_for(
            RawSyscallRule(), unit("durability.py", RAW_GOOD)
        )

    def test_blessed_files_are_exempt(self):
        assert not findings_for(RawSyscallRule(), unit("faults.py", RAW_BAD))
        assert not findings_for(RawSyscallRule(), unit("io.py", RAW_BAD))

    def test_out_of_scope_files_are_exempt(self):
        assert not findings_for(RawSyscallRule(), unit("engine.py", RAW_BAD))

    def test_the_tenant_module_is_under_the_net(self):
        """Rules select files by name: the supervision code moved out of
        ``server.py`` must not have left the net by moving."""
        for path in ("tenant.py", "src/repro/tenant.py"):
            found = findings_for(RawSyscallRule(), unit(path, RAW_BAD))
            assert {f.line for f in found} == {5, 7, 8}, path

    def test_method_open_on_path_objects_fires(self):
        source = """
            def tail(path):
                with path.open("rb") as handle:
                    return handle.read()
        """
        found = findings_for(RawSyscallRule(), unit("replication.py", source))
        assert len(found) == 1
        assert "path.open" in found[0].message


# ---------------------------------------------------------------------------
# snapshot-completeness
# ---------------------------------------------------------------------------


SNAP_BAD = """
    class Tracker:
        def __init__(self):
            self.rows = []
            self.count = 0

        def state_dict(self):
            return {"rows": list(self.rows)}
"""

SNAP_GOOD = """
    class Tracker:
        def __init__(self):
            self.rows = []
            self.count = 0

        def state_dict(self):
            return {"rows": list(self.rows), "count": self.count}
"""

SNAP_EPHEMERAL = """
    class Tracker:
        def __init__(self):
            self.rows = []
            self.cache = {}  # derived  # lint: ephemeral

        def state_dict(self):
            return {"rows": list(self.rows)}
"""


class TestSnapshotCompleteness:
    def test_fires_on_missing_field(self):
        found = findings_for(
            SnapshotCompletenessRule(), unit("tracking.py", SNAP_BAD)
        )
        assert len(found) == 1
        assert "self.count" in found[0].message
        assert found[0].scope == "Tracker.__init__"

    def test_quiet_when_serializer_covers_all(self):
        assert not findings_for(
            SnapshotCompletenessRule(), unit("tracking.py", SNAP_GOOD)
        )

    def test_ephemeral_pragma_exempts(self):
        assert not findings_for(
            SnapshotCompletenessRule(), unit("tracking.py", SNAP_EPHEMERAL)
        )

    def test_classes_without_serializer_ignored(self):
        source = """
            class Plain:
                def __init__(self):
                    self.anything = 1
        """
        assert not findings_for(
            SnapshotCompletenessRule(), unit("x.py", source)
        )

    def test_tuple_unpacking_targets_are_collected(self):
        source = """
            class Pair:
                def __init__(self):
                    self.a, self.b = 1, 2

                def state_dict(self):
                    return {"a": self.a}
        """
        found = findings_for(SnapshotCompletenessRule(), unit("x.py", source))
        assert len(found) == 1
        assert "self.b" in found[0].message


# ---------------------------------------------------------------------------
# epoch-bump
# ---------------------------------------------------------------------------


EPOCH_BAD = """
    class ReducedGraph:
        def __init__(self):
            self._info = {}
            self._epoch = 0

        def _bump(self):
            self._epoch += 1

        def delete(self, txn):
            self._info.pop(txn)
"""

EPOCH_GOOD = """
    class ReducedGraph:
        def __init__(self):
            self._info = {}
            self._epoch = 0

        def _bump(self):
            self._epoch += 1

        def delete(self, txn):
            self._info.pop(txn)
            self._bump()
"""

EPOCH_HELPER_COVERED = """
    class ReducedGraph:
        def __init__(self):
            self._info = {}
            self._epoch = 0

        def _bump(self):
            self._epoch += 1

        def _unindex(self, txn):
            self._info.pop(txn)

        def delete(self, txn):
            self._unindex(txn)
            self._bump()
"""


class TestEpochBump:
    def test_fires_on_unbumped_mutation(self):
        found = findings_for(EpochBumpRule(), unit("core/reduced_graph.py",
                                                   EPOCH_BAD))
        assert len(found) == 1
        assert found[0].scope == "ReducedGraph.delete"
        assert "_info" in found[0].message

    def test_quiet_when_bumped(self):
        assert not findings_for(
            EpochBumpRule(), unit("core/reduced_graph.py", EPOCH_GOOD)
        )

    def test_helper_covered_by_bumping_caller(self):
        assert not findings_for(
            EpochBumpRule(), unit("core/reduced_graph.py",
                                  EPOCH_HELPER_COVERED)
        )

    def test_kernel_mutator_calls_require_bump(self):
        source = """
            class ReducedGraph:
                def __init__(self):
                    self._closure = None
                    self._epoch = 0

                def _bump(self):
                    self._epoch += 1

                def add_arc(self, tail, head):
                    self._closure.add_arc(tail, head)
        """
        found = findings_for(EpochBumpRule(),
                             unit("core/reduced_graph.py", source))
        assert len(found) == 1
        assert "_closure.add_arc" in found[0].message

    def test_bitclosure_contract_uses_mutations_counter(self):
        source = """
            class BitClosureGraph:
                def __init__(self):
                    self._succ = []
                    self._mutations = 0

                def add_arc(self, a, b):
                    self._succ.append(b)
        """
        found = findings_for(EpochBumpRule(), unit("graphs/bitclosure.py",
                                                   source))
        assert len(found) == 1
        fixed = """
            class BitClosureGraph:
                def __init__(self):
                    self._succ = []
                    self._mutations = 0

                def add_arc(self, a, b):
                    self._succ.append(b)
                    self._mutations += 1
        """
        assert not findings_for(
            EpochBumpRule(), unit("graphs/bitclosure.py", fixed)
        )

    def test_non_self_receivers_ignored(self):
        source = """
            class ReducedGraph:
                def copy(self):
                    clone = ReducedGraph()
                    clone._info = dict(self._info)
                    return clone
        """
        assert not findings_for(
            EpochBumpRule(), unit("core/reduced_graph.py", source)
        )


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


DET_BAD = """
    import os
    import random
    import time

    def step_id():
        return time.time()

    def jitter():
        return random.random()

    def token():
        return os.urandom(8)
"""

DET_GOOD = """
    import random

    def make_rng(seed):
        return random.Random(seed)
"""


class TestDeterminism:
    def test_fires_on_nondeterminism(self):
        found = findings_for(DeterminismRule(), unit("engine.py", DET_BAD))
        assert {f.scope for f in found} == {"step_id", "jitter", "token"}

    def test_seeded_rng_is_allowed(self):
        assert not findings_for(DeterminismRule(), unit("engine.py",
                                                        DET_GOOD))

    def test_unseeded_rng_constructor_fires(self):
        source = "import random\nrng = random.Random()\n"
        found = findings_for(DeterminismRule(), unit("engine.py", source))
        assert len(found) == 1
        assert "unseeded" in found[0].message

    def test_pragma_suppresses_with_audit_trail(self):
        source = """
            import time

            def stamp():
                return time.time()  # lint: allow(determinism)
        """
        run = run_rules([unit("engine.py", source)], [DeterminismRule()])
        assert not run.findings
        assert len(run.suppressed) == 1

    def test_out_of_scope_files_exempt(self):
        assert not findings_for(DeterminismRule(), unit("server.py",
                                                        DET_BAD))


# ---------------------------------------------------------------------------
# blocking-in-async
# ---------------------------------------------------------------------------


ASYNC_BAD = """
    import time

    async def handler(request):
        time.sleep(0.1)
        return request
"""

ASYNC_GOOD = """
    import asyncio

    async def handler(request):
        await asyncio.sleep(0.1)
        return request
"""


class TestBlockingInAsync:
    def test_fires_inside_async_def(self):
        found = findings_for(BlockingInAsyncRule(), unit("server.py",
                                                         ASYNC_BAD))
        assert len(found) == 1
        assert found[0].scope == "handler"
        assert "asyncio.sleep" in found[0].message

    def test_quiet_on_awaited_sleep(self):
        assert not findings_for(
            BlockingInAsyncRule(), unit("server.py", ASYNC_GOOD)
        )

    def test_sync_functions_unaffected(self):
        source = "import time\n\ndef warmup():\n    time.sleep(1)\n"
        assert not findings_for(
            BlockingInAsyncRule(), unit("server.py", source)
        )

    def test_nested_def_bodies_are_skipped(self):
        source = """
            import time

            async def handler(loop):
                def blocking_work():
                    time.sleep(1)
                return await loop.run_in_executor(None, blocking_work)
        """
        assert not findings_for(
            BlockingInAsyncRule(), unit("server.py", source)
        )

    def test_the_tenant_module_is_under_the_net(self):
        for path in ("tenant.py", "src/repro/tenant.py"):
            found = findings_for(BlockingInAsyncRule(), unit(path, ASYNC_BAD))
            assert [f.scope for f in found] == ["handler"], path
        source = """
            import os

            async def heal(handle):
                os.fsync(handle.fileno())
        """
        found = findings_for(BlockingInAsyncRule(), unit("tenant.py", source))
        assert len(found) == 1 and "os.fsync" in found[0].message

    def test_blocking_open_fires(self):
        source = """
            async def read_config(path):
                with open(path) as handle:
                    return handle.read()
        """
        found = findings_for(BlockingInAsyncRule(), unit("client.py", source))
        assert len(found) == 1


# ---------------------------------------------------------------------------
# fault-site-coverage
# ---------------------------------------------------------------------------


SITES_CATALOG = """
    FAULT_SITES = {
        "wal.append": "fail or tear a WAL append",
        "wal.fsync": "fail the WAL file fsync",
    }
"""


class TestFaultSiteCoverage:
    def test_typo_site_fires(self):
        user = """
            def feed(io):
                io.check("wal.appendd")
                io.check("wal.fsync")
                io.check("wal.append")
        """
        found = findings_for(
            FaultSiteCoverageRule(),
            unit("faults.py", SITES_CATALOG),
            unit("durability.py", user),
        )
        assert len(found) == 1
        assert "wal.appendd" in found[0].message

    def test_unreferenced_catalog_entry_fires(self):
        user = """
            def feed(io):
                io.check("wal.append")
        """
        found = findings_for(
            FaultSiteCoverageRule(),
            unit("faults.py", SITES_CATALOG),
            unit("durability.py", user),
        )
        assert len(found) == 1
        assert found[0].path == "faults.py"
        assert "wal.fsync" in found[0].message

    def test_site_keyword_counts_as_reference(self):
        user = """
            def plan():
                return [FaultSpec(site="wal.fsync"), Check("wal.append")]

            def fire(io):
                io.fire("wal.append")
        """
        assert not findings_for(
            FaultSiteCoverageRule(),
            unit("faults.py", SITES_CATALOG),
            unit("durability.py", user),
        )

    def test_clean_when_catalog_and_refs_agree(self):
        user = """
            def feed(io):
                io.check("wal.append")
                io.check("wal.fsync")
        """
        assert not findings_for(
            FaultSiteCoverageRule(),
            unit("faults.py", SITES_CATALOG),
            unit("durability.py", user),
        )


# ---------------------------------------------------------------------------
# hygiene-artifacts
# ---------------------------------------------------------------------------


class TestHygieneArtifacts:
    def test_tracked_pyc_fires(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            HygieneArtifactsRule, "_tracked",
            staticmethod(lambda root: [
                "src/repro/engine.py",
                "src/repro/workloads/__pycache__/zipf.cpython-311.pyc",
            ]),
        )
        found = findings_for(HygieneArtifactsRule(), root=tmp_path)
        assert len(found) == 1
        assert "__pycache__" in found[0].path

    def test_clean_tree_quiet(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            HygieneArtifactsRule, "_tracked",
            staticmethod(lambda root: ["src/repro/engine.py"]),
        )
        assert not findings_for(HygieneArtifactsRule(), root=tmp_path)

    def test_fail_soft_without_git(self, monkeypatch, tmp_path):
        # Outside a checkout the rule is advisory, never a crash.
        found = findings_for(HygieneArtifactsRule(),
                             root=tmp_path / "not-a-repo")
        assert found == []


# ---------------------------------------------------------------------------
# framework: pragmas, fingerprints, baseline
# ---------------------------------------------------------------------------


class TestFramework:
    def test_pragma_on_line_above_covers_next_line(self):
        source = """
            import os

            def persist(path):
                # lint: allow(raw-syscall)
                os.fsync(path)
        """
        run = run_rules([unit("durability.py", source)], [RawSyscallRule()])
        assert not run.findings
        assert len(run.suppressed) == 1

    def test_pragma_for_other_rule_does_not_suppress(self):
        source = """
            import os

            def persist(path):
                os.fsync(path)  # lint: allow(determinism)
        """
        run = run_rules([unit("durability.py", source)], [RawSyscallRule()])
        assert len(run.findings) == 1

    def test_fingerprint_is_line_independent(self):
        a = Finding("r", "p.py", 10, "Cls.m", "msg")
        b = Finding("r", "p.py", 99, "Cls.m", "msg")
        c = Finding("r", "p.py", 10, "Cls.m", "other msg")
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_baseline_round_trip_partitions(self, tmp_path):
        old = Finding("r", "p.py", 1, "s", "accepted long ago")
        new = Finding("r", "p.py", 2, "s", "fresh regression")
        path = tmp_path / "baseline.json"
        assert write_baseline(path, [old]) == 1
        accepted = load_baseline(path)
        fresh, baselined = partition_findings([old, new], accepted)
        assert fresh == [new]
        assert baselined == [old]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == set()

    def test_malformed_baseline_raises(self, tmp_path):
        from repro.errors import ModelError

        path = tmp_path / "baseline.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ModelError):
            load_baseline(path)


# ---------------------------------------------------------------------------
# report schema
# ---------------------------------------------------------------------------


def _sample_payload():
    run = run_rules(
        [unit("durability.py", RAW_BAD)], [RawSyscallRule()]
    )
    return report_payload(
        run, all_rules(), root="src/repro",
        new=list(run.findings), baselined=[],
    )


class TestReportSchema:
    def test_valid_payload_passes(self):
        assert validate_payload(_sample_payload()) == []

    def test_round_trips_through_json(self):
        payload = json.loads(json.dumps(_sample_payload()))
        assert validate_payload(payload) == []

    def test_edited_finding_fails_fingerprint_check(self):
        payload = _sample_payload()
        payload["findings"][0]["message"] = "doctored"
        problems = validate_payload(payload)
        assert any("fingerprint" in p for p in problems)

    def test_inconsistent_counts_fail(self):
        payload = _sample_payload()
        payload["counts"]["new"] = 0
        payload["clean"] = True
        problems = validate_payload(payload)
        assert problems

    def test_wrong_suite_fails(self):
        payload = _sample_payload()
        payload["suite"] = "hotpaths"
        assert any("suite" in p for p in validate_payload(payload))

    def test_validate_bench_dispatch(self, tmp_path):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "validate_bench",
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks" / "validate_bench.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        path = tmp_path / "BENCH_lint.json"
        path.write_text(json.dumps(_sample_payload()))
        assert module.validate_file(path) == "lint"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _lint_cli(*argv):
    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    return lint_run(parser.parse_args(list(argv)))


class TestCli:
    def test_unknown_rule_gets_did_you_mean(self, capsys):
        assert _lint_cli("--rule", "determinsm") == 2
        err = capsys.readouterr().err
        assert "did you mean 'determinism'?" in err
        assert "known rules:" in err

    def test_list_rules_prints_catalog(self, capsys):
        assert _lint_cli("--list-rules") == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out
            assert rule.rationale.split()[0] in out
        assert "faults.py" in out  # blessed sites are listed

    def test_dirty_fixture_tree_exits_1(self, tmp_path, capsys):
        (tmp_path / "durability.py").write_text(textwrap.dedent(RAW_BAD))
        assert _lint_cli(str(tmp_path), "--no-baseline") == 1
        assert "raw-syscall" in capsys.readouterr().out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        (tmp_path / "durability.py").write_text(textwrap.dedent(RAW_BAD))
        baseline = tmp_path / "baseline.json"
        assert _lint_cli(str(tmp_path), "--baseline", str(baseline),
                         "--write-baseline") == 0
        assert _lint_cli(str(tmp_path), "--baseline", str(baseline)) == 0
        out = capsys.readouterr().out
        assert "(baselined)" in out

    def test_json_report_written_and_valid(self, tmp_path):
        (tmp_path / "durability.py").write_text(textwrap.dedent(RAW_BAD))
        out_path = tmp_path / "report.json"
        assert _lint_cli(str(tmp_path), "--no-baseline",
                         "--output", str(out_path)) == 1
        payload = json.loads(out_path.read_text())
        assert validate_payload(payload) == []
        assert payload["clean"] is False

    def test_repro_cli_wires_lint_subcommand(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        assert "raw-syscall" in capsys.readouterr().out

    def test_missing_path_exits_2(self, tmp_path):
        assert _lint_cli(str(tmp_path / "missing")) == 2


# ---------------------------------------------------------------------------
# the live tree
# ---------------------------------------------------------------------------


class TestSelfRun:
    def test_lint_self_run(self, capsys):
        """The shipped tree lints clean: zero non-baseline findings.

        CI must-run guard: this test may never be skipped.  If it fails,
        the finding text printed below IS the diagnosis — either fix the
        violation or (for a deliberate exception) add a documented
        pragma, never a silent baseline entry.
        """
        exit_code = _lint_cli(str(default_root()), "--no-baseline")
        out = capsys.readouterr().out
        assert exit_code == 0, f"repro lint found regressions:\n{out}"
        assert "clean" in out

    def test_every_rule_ran_against_the_tree(self):
        from repro.lint import load_units

        rules = all_rules()
        assert len(rules) >= 6
        units = load_units(default_root())
        run = run_rules(units, rules, root=default_root())
        assert run.files > 50
        # The deliberate exceptions stay visible as suppressions, not
        # silently dropped: the writer lock's os.open (1) + lag/audit
        # stamps (3).
        assert len(run.suppressed) == 4

    def test_layers_above_the_engines_do_not_know_their_shape(self):
        """One owner per decision: what counts as history, and which
        engine answers a call, is ``engine.py``'s business.  Durability,
        replication and serving hold *an engine* — they name no sharded
        class or flag, reach into nobody's history lists, and probe for
        no method (every engine answers the same façade)."""
        import ast
        import re

        root = default_root()
        for name in ("durability.py", "replication.py", "server.py",
                     "tenant.py"):
            text = (root / name).read_text()
            assert "ShardedEngine" not in text, name
            assert not re.search(r"\b_sharded\b|\.sharded\b", text), name
            assert not re.search(
                r"\._results\b|\._input_log\b|\._deleted_ids\b"
                r"|\.history\.(?:results|executed|deleted|accepted_at|deleted_at)\b",
                text,
            ), name
            for node in ast.walk(ast.parse(text)):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and isinstance(node.args[1], ast.Constant)
                ):
                    target = ast.unparse(node.args[0]).lower()
                    assert "engine" not in target and "inner" not in target, (
                        f"{name}:{node.lineno} probes an engine for "
                        f"{node.args[1].value!r}"
                    )
        # The BatchResult aggregation exists once (client.py's wire
        # feed_batch is a different thing).
        batch_defs = sum(
            len(re.findall(r"^\s*def feed_batch\b", (root / name).read_text(), re.M))
            for name in ("engine.py", "durability.py")
        )
        assert batch_defs == 1

    def test_serving_is_split_at_the_tenant_boundary(self):
        """One owner per decision: ``tenant.py`` owns a tenant's
        lifecycle and knows no wire; ``server.py`` owns names and the
        wire and writes no lifecycle state; the per-class field lists of
        the wire error format live in ``errors.py`` only."""
        import ast
        import inspect
        import re

        from repro import client, server

        root = default_root()
        lifecycle = {
            "state", "demotions", "demoted_at", "recoveries",
            "downtime_seconds", "recovery_exhausted", "next_retry_at",
        }

        def assigned_attributes(tree):
            for node in ast.walk(tree):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Attribute):
                            yield leaf.attr, node.lineno

        server_tree = ast.parse((root / "server.py").read_text())
        written = [
            (attr, line) for attr, line in assigned_attributes(server_tree)
            if attr in lifecycle
        ]
        assert not written, f"server.py writes lifecycle state: {written}"

        # ... and inside tenant.py, only the two methods that own them.
        tenant_tree = ast.parse((root / "tenant.py").read_text())
        for node in ast.walk(tenant_tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in ("__init__", "_transition", "_back_off"):
                    continue
                inside = [a for a, _ in assigned_attributes(node) if a in lifecycle]
                assert not inside, f"tenant.py {node.name} writes {inside}"

        # No ReproServer method takes a tenant first, except the hook
        # that picks an auto-promote target from the registry.
        takers = [
            name for name, fn in vars(server.ReproServer).items()
            if inspect.isfunction(fn)
            and list(inspect.signature(fn).parameters)[1:2] in (["tenant"], ["failed"])
        ]
        assert takers == ["_spawn_auto_promote"]

        tenant_text = (root / "tenant.py").read_text()
        assert not re.search(r"wire_message|step_from_dict|step_result_to_dict"
                             r"|from repro\.io|import json", tenant_text)
        assert "start_server" not in tenant_text
        assert "ReproServer" not in re.sub(r'""".*?"""', "", tenant_text, flags=re.S)

        for function in (server.ReproServer._dispatch_line,
                         client._raise_for_error):
            body = inspect.getsource(function)
            for field in ("retry_after", "primary_wal_dir", "lag_seq",
                          "exhausted", "max_lag"):
                assert field not in body, (function.__qualname__, field)

    def test_committed_baseline_is_empty(self):
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        baseline = repo_root / "lint-baseline.json"
        assert baseline.exists()
        assert load_baseline(baseline) == set()
