"""Run bookkeeping, the server subprocess, and correctness oracles.

Everything here drives the *public* API from outside: the server is the
``repro serve`` CLI in a subprocess, engines come from ``build_engine``,
and the oracles are plain in-process engines fed the same seeded stream.
"""

from __future__ import annotations

import os
import pathlib
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

import measure

from repro.io import engine_snapshot_to_json

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: ``--seconds`` value at which the step counts below are quoted.
NOMINAL_SECONDS = 15.0
#: Per-request deadline: a hung server fails the run instead of hanging it.
REQUEST_DEADLINE_S = 20.0
#: How long ``repro serve`` may take to print its ``serving on`` line.
SERVER_START_DEADLINE_S = 30.0
#: Set-up is repeated this often; ``setup_s`` is the median.
SETUP_REPEATS = 3


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process — and so every subprocess it starts — to the
    first CPU it may use; returns that CPU.

    On this 2-vCPU VM a closed-loop client and its server on *different*
    CPUs wake each other through the hypervisor, and that cost wanders:
    ten serve_step runs of one commit spread 19% in steps/s and 14% in
    server CPU per step, and the kernel now and then co-locates the two
    for a whole run anyway (5.0k against 3.3k steps/s between two
    hands-off sets).  On one CPU there is one mode and the same runs
    spread about 5%.  The price is stated in README.md: throughput is
    that of client and server sharing a core.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    return allowed[0]


@dataclass
class Run:
    """One workload run: its sizes, its counters, and what it measured."""

    workload: str
    seed: int
    seconds: float
    workdir: pathlib.Path
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    gates: List[Dict[str, Any]] = field(default_factory=list)
    #: sample count (and percentile label) behind each reported metric
    samples: Dict[str, Any] = field(default_factory=dict)
    #: per-window series kept for the result file
    windows: Dict[str, List[float]] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)

    def scaled(self, nominal: int, *, multiple: int = 1, floor: int = 1) -> int:
        """*nominal* (quoted at 15 s) scaled to this run's ``--seconds``.

        Counts, not durations, fix the amount of work: the same
        ``--seconds`` always yields the same step counts, so counters
        such as ``resident_peak`` repeat exactly for a seed.
        """
        count = int(nominal * self.seconds / NOMINAL_SECONDS)
        count = max(floor, count)
        return max(multiple, count - count % multiple)

    def ops(self, attempted: int, failed: int) -> None:
        """Account *attempted* operations, *failed* of them refused,
        timed out, or answered differently from the oracle."""
        self.attempted += attempted
        self.failed += failed

    def gate(self, name: str, ok: bool, detail: str = "") -> bool:
        """One named correctness check; a failed gate fails the run.
        Repeated checks of one name are tallied on one entry."""
        for entry in self.gates:
            if entry["name"] == name:
                break
        else:
            entry = {"name": name, "checks": 0, "failed": 0, "detail": ""}
            self.gates.append(entry)
        entry["checks"] += 1
        if not ok:
            entry["failed"] += 1
            entry["detail"] = entry["detail"] or detail
        self.ops(1, 0 if ok else 1)
        return bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def subdir(self, name: str) -> pathlib.Path:
        path = self.workdir / name
        path.mkdir(parents=True, exist_ok=True)
        return path


async def repeated_setup(
    run: Run,
    make: Callable[[int], Awaitable[Any]],
    dispose: Callable[[Any], Awaitable[None]],
) -> Any:
    """Set up ``SETUP_REPEATS`` times, keep the last, report the median.

    A later change that moves work out of the timed phase into set-up
    shows up here, which is why set-up is a metric and not a footnote.
    """
    times: List[float] = []
    state: Any = None
    for attempt in range(SETUP_REPEATS):
        started = time.perf_counter()
        state = await make(attempt)
        times.append(time.perf_counter() - started)
        if attempt + 1 < SETUP_REPEATS:
            await dispose(state)
    run.metrics["setup_s"] = statistics.median(times)
    run.samples["setup_s"] = len(times)
    run.windows["setup_s"] = times
    return state


# ---------------------------------------------------------------------------
# The server subprocess
# ---------------------------------------------------------------------------


class ServerProcess:
    """``python -m repro serve --port 0`` with a guaranteed kill.

    Callers :meth:`kill` it in a ``finally``: the process is SIGKILLed
    and reaped on every exit path, which is also how the workloads produce
    their crashed ``wal_dir``s — a real process death, not a courtesy
    shutdown.
    """

    def __init__(self, log_path: pathlib.Path) -> None:
        self._log_path = log_path
        self._proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with open(self._log_path, "w") as log:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                text=True,
            )
        try:
            self.host, self.port = self._read_address()
        except BaseException:
            self.kill()
            raise
        return self

    def _read_address(self) -> Tuple[str, int]:
        assert self._proc is not None and self._proc.stdout is not None
        deadline = time.monotonic() + SERVER_START_DEADLINE_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    "repro serve did not print 'serving on host:port' within "
                    f"{SERVER_START_DEADLINE_S}s (see {self._log_path})"
                )
            ready, _, _ = select.select([self._proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = self._proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"repro serve exited before serving (see {self._log_path})"
                )
            if line.startswith("serving on "):
                host, _, port = line.split()[-1].rpartition(":")
                return host, int(port)

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def cpu_seconds(self) -> float:
        return measure.proc_cpu_seconds(self.pid)

    def hwm_mb(self) -> float:
        return measure.proc_hwm_mb(self.pid)

    def kill(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def snapshot_text(engine) -> str:
    """The byte-comparison form of an engine's full state.

    ``engine_snapshot_to_json`` is key-sorted, so two engines in the same
    state yield identical text whatever order their dicts were built in.
    """
    inner = getattr(engine, "engine", engine)
    return engine_snapshot_to_json(inner.snapshot(), indent=None)


def count_mismatches(served: List[Any], expected: List[Any]) -> int:
    """Positions at which the served answers differ from the oracle's
    (a length difference counts once per missing answer)."""
    differing = sum(1 for got, want in zip(served, expected) if got != want)
    return differing + abs(len(served) - len(expected))


def copy_wal_dir(source: pathlib.Path, target: pathlib.Path) -> pathlib.Path:
    """A fresh copy of a crashed ``wal_dir`` (``recover`` repairs and
    locks the directory it is given, so every timed recovery gets its
    own)."""
    if target.exists():
        shutil.rmtree(target)
    shutil.copytree(source, target)
    return target
