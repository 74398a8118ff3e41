"""``run.py compare A.jsonl [B.jsonl]``: two sets of runs, row by row.

Each file holds result records written by ``run.py --out`` (one JSON
object per line, any number of runs per workload).  Per workload and
end-to-end metric the table shows both medians, the ratio *and its base*,
the metric's bound, the wider of the two run-to-run spreads, and a
verdict:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the spread (interquartile range over median, as
  ``statistics.quantiles(values, n=4)`` gives it) is wider than the
  bound, so the medians cannot settle it — unless every run of one side
  beats every run of the other, which does.

The exit code is non-zero on any ``regressed`` row or failed operation.
With one file, the table is that set's own spread against each bound —
the steadiness check a benchmark must pass before its numbers are used.

``run.py trajectory SET.jsonl ...`` condenses sets of runs into the one
line ``results/trajectory.jsonl`` keeps per commit: the median of every
metric per workload, end-to-end from the untraced records and per-layer
from the traced ones.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

Key = Tuple[str, str]


def read_records(path: str) -> List[Dict[str, Any]]:
    return [json.loads(line)
            for line in pathlib.Path(path).read_text().splitlines()
            if line.strip()]


def load_runs(path: str) -> Tuple[Dict[Key, List[float]], int]:
    """``{(workload, metric): values}`` over the untraced records of
    *path*, and the number of failed operations in them."""
    values: Dict[Key, List[float]] = {}
    failed = 0
    for record in read_records(path):
        if record["trace"]:
            continue
        failed += record["failed"]
        for name, entry in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(
                entry["value"]
            )
    return values, failed


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(
    a: List[float], b: List[float], *, lower_is_better: bool, bound: float
) -> Tuple[str, float]:
    """``(verdict, worsening)``; worsening is B's median over A's, signed
    so that positive means worse, as a share of A's median."""
    base = statistics.median(a)
    sign = 1.0 if lower_is_better else -1.0
    worsening = sign * (statistics.median(b) - base) / base
    if max(spread(a), spread(b)) > bound:
        if lower_is_better:
            b_wins, a_wins = max(b) < min(a), max(a) < min(b)
        else:
            b_wins, a_wins = min(b) > max(a), min(a) > max(b)
        if b_wins:
            return "ok", worsening
        if not (a_wins and worsening > bound):
            return "unresolved", worsening
    return ("regressed" if worsening > bound else "ok"), worsening


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: run.py compare A.jsonl [B.jsonl]", file=sys.stderr)
        return 2
    root = pathlib.Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics: List[Dict[str, Any]] = spec["end_to_end"]
    runs_a, failed_a = load_runs(argv[0])
    runs_b: Optional[Dict[Key, List[float]]] = None
    failed_b = 0
    if len(argv) == 2:
        runs_b, failed_b = load_runs(argv[1])
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in metrics:
            key = (workload, metric["name"])
            a = runs_a.get(key)
            b = runs_b.get(key) if runs_b is not None else None
            if not a or (runs_b is not None and not b):
                continue
            lower = metric["better"] == "lower"
            bound = metric["bound"]
            head = f"{workload:16s} {metric['name']:24s}"
            if b is None:
                share = spread(a)
                wide = share > bound and metric["name"] != "setup_s"
                bad += wide
                print(f"{head} median {statistics.median(a):>12.6g} "
                      f"{metric['unit']:<7s} n={len(a):<3d} "
                      f"spread {share:6.1%}  bound {bound:4.0%}  "
                      f"{'TOO WIDE' if wide else 'ok'}"
                      f"{'' if share <= bound / 3 else '  (> bound/3)'}")
                continue
            what, worsening = verdict(a, b, lower_is_better=lower, bound=bound)
            bad += what == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{head} A {med_a:>12.6g}  B {med_b:>12.6g} "
                  f"{metric['unit']:<7s} B/A {med_b / med_a:6.3f} "
                  f"(base {med_a:.6g})  worse by {worsening:+6.1%}  "
                  f"bound {bound:4.0%}  "
                  f"spread {max(spread(a), spread(b)):5.1%}  {what}")
    for label, failed in (("A", failed_a), ("B", failed_b)):
        if failed:
            bad += 1
            print(f"{label}: {failed} operations failed their correctness "
                  "gates")
    return 1 if bad else 0


def trajectory_main(argv: List[str]) -> int:
    """Print one trajectory line for the records in the given files."""
    if not argv:
        print("usage: run.py trajectory SET.jsonl [MORE.jsonl ...]",
              file=sys.stderr)
        return 2
    records = [record for path in argv for record in read_records(path)]
    if any(record["failed"] for record in records):
        print("refusing to summarise runs with failed operations",
              file=sys.stderr)
        return 1
    sections: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        "end_to_end": {}, "per_layer": {},
    }
    for record in records:
        section = sections["per_layer" if record["trace"] else "end_to_end"]
        per_metric = section.setdefault(record["workload"], {})
        for name, entry in record["metrics"].items():
            per_metric.setdefault(name, []).append(entry["value"])
    environments = [record["environment"] for record in records]
    line = {
        "commit": sorted({str(env["commit"]) for env in environments}),
        "python": sorted({env["python"] for env in environments}),
        "nproc": sorted({env["nproc"] for env in environments}),
        "seconds": sorted({record["seconds"] for record in records}),
        "seeds": sorted({env["seed"] for env in environments}),
        "runs": len(records),
    }
    for name, section in sections.items():
        line[name] = {
            workload: {metric: statistics.median(values)
                       for metric, values in per_metric.items()}
            for workload, per_metric in section.items()
        }
    print(json.dumps(line, sort_keys=True))
    return 0
