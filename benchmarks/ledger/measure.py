"""Measurement primitives shared by every ledger workload.

Why the *fastest window* and not the median: this harness runs on a
shared 2-core VM where interference is one-sided and bursty.  Sizing runs
of one seed and one commit saw the median window's CPU/step wander
98..132 us while the fastest window stayed within 90..93 us.  Extra load
only ever slows a window down, so the fastest of the equal-count windows
is the least disturbed observation of the same code, and it is the one
that repeats.  The first window is always dropped as warm-up.
"""

from __future__ import annotations

import math
import os
import pathlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Equal-count windows per timed phase (the first is dropped).
WINDOWS = 17

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_seconds(pid: int) -> float:
    """CPU time (user+system) consumed so far by process *pid*.

    ``/proc/<pid>/schedstat`` counts on-CPU nanoseconds; where the kernel
    does not provide it, ``/proc/<pid>/stat`` gives clock ticks (10 ms).
    """
    try:
        with open(f"/proc/{pid}/schedstat") as handle:
            on_cpu_ns = int(handle.read().split()[0])
        if on_cpu_ns:
            return on_cpu_ns / 1e9
    except (OSError, ValueError, IndexError):
        pass
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of process *pid*, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def dir_bytes(path) -> int:
    """Bytes on disk under *path*, not counting the PID-stamped LOCK file
    (its length depends on the PID, not on the workload)."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            if name.startswith("LOCK"):
                continue
            total += os.path.getsize(os.path.join(root, name))
    return total


def percentile(ordered: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) of an already sorted sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


_TAILS = (("p999", 0.999), ("p99", 0.99), ("p90", 0.90), ("p50", 0.50))


def _needed(q: float) -> int:
    """Samples a window must hold for its *q*-quantile to have ten
    samples beyond it."""
    return math.ceil(10 / (1 - q) - 1e-9)


def tail_quantile(count: int, cap: float = 0.999) -> Tuple[str, float]:
    """The highest of p50/p90/p99/p99.9 that is at most *cap* and has
    >= 10 of *count* samples beyond it — the rule every reported tail
    follows.  Returns ``(label, q)``."""
    for label, q in _TAILS:
        if q <= cap and count >= _needed(q):
            return label, q
    return _TAILS[-1]


def windowed_percentile(
    samples: Sequence[float], q: float
) -> Tuple[float, int]:
    """The *q*-quantile of the least-disturbed window of *samples*.

    The samples (in arrival order) are cut into as many equal-count
    windows as still leave each one ten samples beyond the quantile (at
    most ``WINDOWS - 1``, at least one); the quantile is taken inside
    each window and the smallest is reported, for the reason the module
    docstring gives.  Returns ``(value, windows used)``.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    windows = max(1, min(WINDOWS - 1, len(samples) // _needed(q)))
    size = len(samples) // windows
    values = [
        percentile(sorted(samples[index * size:(index + 1) * size]), q)
        for index in range(windows)
    ]
    return min(values), windows


class Windows:
    """Wall and CPU marks at equal-count boundaries of one timed phase.

    ``mark()`` is called by the load loop each time another window's
    worth of steps completed; *cpu* is read at the same instant so both
    series describe the same interval.
    """

    def __init__(self, cpu: Callable[[], float]) -> None:
        self._cpu = cpu
        self.marks: List[Tuple[float, float]] = []

    def mark(self) -> None:
        self.marks.append((time.perf_counter(), self._cpu()))

    def series(self, steps_per_window: int) -> Dict[str, List[float]]:
        """Per-window ``steps_per_s`` and ``cpu_us_per_step`` (first
        window dropped)."""
        rates: List[float] = []
        cpus: List[float] = []
        pairs = list(zip(self.marks, self.marks[1:]))[1:]
        for (wall0, cpu0), (wall1, cpu1) in pairs:
            rates.append(steps_per_window / (wall1 - wall0))
            cpus.append((cpu1 - cpu0) / steps_per_window * 1e6)
        return {"steps_per_s": rates, "cpu_us_per_step": cpus}


def read_loadavg() -> Optional[float]:
    try:
        return float(pathlib.Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None
