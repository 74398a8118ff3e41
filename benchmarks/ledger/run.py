#!/usr/bin/env python3
"""The step-cost ledger: one command, four workloads, every metric by name.

    python3 benchmarks/ledger/run.py                      # all workloads
    python3 benchmarks/ledger/run.py --workload serve_step --seed 7
    python3 benchmarks/ledger/run.py --workload serve_step --trace 1
    python3 benchmarks/ledger/run.py --smoke              # ~1/50 size
    python3 benchmarks/ledger/run.py compare A.jsonl B.jsonl
    python3 benchmarks/ledger/run.py trajectory SET.jsonl TRACED.jsonl

Metric names, units, directions and regression bounds are declared once,
in ``BENCHMARK.json`` at the repository root; this runner reads them from
there.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any correctness gate failed.  See README.md beside this
file for the metric dictionary and the per-layer ladder.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import platform
import shutil
import sys
import tempfile
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

DEFAULT_SEED = 1986
SMOKE_SECONDS = 0.3


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one declaration of workloads and metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _environment(seed: int) -> Dict[str, Any]:
    import measure

    commit = None
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        else:
            commit = ref
    except OSError:
        pass  # a checkout without .git: the commit is simply not known
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
        "loadavg_1m": measure.read_loadavg(),
    }


def run_workload(
    name: str, *, seed: int, seconds: float, trace: bool,
    workdir: Optional[str],
) -> Dict[str, Any]:
    """Run one workload (untraced, or its traced ladder) and return the
    result record; every ``wal_dir`` lives under one scratch directory
    that is removed on the way out, whatever happened."""
    from harness import Run, pin_to_one_cpu

    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    base = pathlib.Path(workdir) if workdir else HERE / ".work"
    base.mkdir(parents=True, exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    run = Run(workload=name, seed=seed, seconds=seconds, workdir=scratch)
    environment = _environment(seed)
    environment["pinned_cpu"] = pin_to_one_cpu()
    try:
        if trace:
            from traced import TRACED

            asyncio.run(TRACED[name](run))
        else:
            from workloads import WORKLOADS

            asyncio.run(WORKLOADS[name](run))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if trace:
        # A layer this workload never enters reports 0 for its metrics.
        for metric in wanted:
            run.metrics.setdefault(metric["name"], 0.0)
    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    if missing:
        raise RuntimeError(f"{name} did not report {', '.join(missing)}")
    return {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment,
        "sizes": run.sizes,
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_share": run.failed / run.attempted,
        "gates": run.gates,
        "metrics": {
            m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
        "samples": run.samples,
        "windows": run.windows,
    }


def print_record(record: Dict[str, Any], spec: Dict[str, Any]) -> None:
    """Every metric by name with unit, direction and regression bound."""
    declared = {
        m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]
    }
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']}  seed={record['environment']['seed']}  "
          f"{kind} ==")
    for name, entry in record["metrics"].items():
        meta = declared[name]
        bound = (f"bound {meta['bound']:.0%}" if "bound" in meta
                 else "no bound")
        note = record["samples"].get(name)
        note = f"  [{json.dumps(note)}]" if note is not None else ""
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']:<8s} "
              f"{meta['better']:<6s} better, {bound}{note}")
    print(f"  {'failed_share':34s} {record['failed_share']:>16.6g} "
          f"{'share':<8s} lower  better, bound 0%  "
          f"[{record['failed']} failed of {record['attempted']} attempted]")
    for gate in record["gates"]:
        verdict = "ok" if not gate["failed"] else "FAILED"
        detail = f" ({gate['detail']})" if gate["detail"] else ""
        print(f"  gate {verdict:6s} x{gate['checks']:<3d} {gate['name']}{detail}")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from compare import main as compare_main

        return compare_main(argv[1:])
    if argv and argv[0] == "trajectory":
        from compare import trajectory_main

        return trajectory_main(argv[1:])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} is missing: the ledger measures "
              "the repository it sits in and has nothing to run without it",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="sizes every workload: step counts are "
                             "quoted at 15 and scale linearly")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run the per-layer ladder instead")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help=f"~1/50 size (--seconds {SMOKE_SECONDS})")
    parser.add_argument("--out", help="append each result record to this "
                                      "file, one JSON object per line")
    parser.add_argument("--workdir", help="where wal_dirs are created and "
                                          "removed (default: beside run.py)")
    args = parser.parse_args(argv)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    if seconds <= 0:
        parser.error("--seconds must be positive")

    records = []
    for name in [args.workload] if args.workload else names:
        record = run_workload(name, seed=args.seed, seconds=seconds,
                              trace=bool(args.trace), workdir=args.workdir)
        print_record(record, spec)
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        records.append(record)

    single = len(records) == 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (name if single else f"{r['workload']}.{name}"): entry
            for r in records for name, entry in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
