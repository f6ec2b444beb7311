"""Shared pieces of the benchmark: operation accounting, metrics, host facts.

Nothing here imports :mod:`repro`; the workload modules do, after
:mod:`perfbench.run` has put the checkout's ``src`` directory on the path.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent


def host_cores() -> int:
    """Cores this process may run on (``nproc``)."""
    return len(os.sched_getaffinity(0))


@dataclass
class Run:
    """What one benchmark invocation measured and checked.

    ``attempted``/``failed`` count operations; an operation whose
    correctness check fails is failed.  ``metrics`` are the JSON-line
    metrics (``name -> (value, unit)``); ``notes`` are extra named figures
    printed for people and saved with the result, never in the JSON line.
    """

    workload: str
    seed: int
    trace: bool
    params: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, tuple[float | None, str, int | None]] = field(
        default_factory=dict
    )

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a false ``ok`` counts it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(
        self, name: str, value: float | None, unit: str, samples: int | None = None
    ) -> None:
        self.notes[name] = (None if value is None else float(value), unit, samples)


def median(values: list[float]) -> float:
    return statistics.median(values)


def mean(values: list[float]) -> float:
    return statistics.fmean(values)


def percentile(values: list[float], q: float) -> float | None:
    """The ``q`` quantile (0..1), or ``None`` when fewer than ten samples
    lie beyond it — too few to call it a percentile."""
    if not values or len(values) * (1.0 - q) < 10:
        return None
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


class Deadline:
    """A closed loop's time budget: start another repetition only if the
    last one would still fit, but always run at least one."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.end = self.start + seconds
        self.last = 0.0
        self.count = 0

    def more(self) -> bool:
        if self.count == 0:
            return True
        return time.perf_counter() + self.last <= self.end

    def done(self, elapsed: float) -> None:
        self.count += 1
        self.last = elapsed


# -- memory --------------------------------------------------------------------


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                kids.extend(int(token) for token in handle.read().split())
        except OSError:
            continue
    return kids


def _hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _tree(pid: int) -> list[int]:
    """``pid`` and all its descendants."""
    pids, stack = [], [pid]
    while stack:
        current = stack.pop()
        if current not in pids:
            pids.append(current)
            stack.extend(_children(current))
    return pids


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets of ``pid`` and all its descendants."""
    return sum(_hwm_kib(current) for current in _tree(pid)) / 1024.0


_TICK = os.sysconf("SC_CLK_TCK")


def tree_cpu_s(pid: int, *, root: bool = True) -> float:
    """User plus system CPU seconds so far of ``pid`` (unless ``root`` is
    false) and its live descendants, at clock-tick resolution.

    Hypervisor steal is not CPU time, so unlike wall time this does not
    grow when the host lends the cores to other guests.
    """
    total = 0
    for current in _tree(pid)[0 if root else 1 :]:
        try:
            with open(f"/proc/{current}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _TICK


def work_cpu_s() -> float:
    """CPU seconds so far of this process (exact) and its pool workers."""
    return time.process_time() + tree_cpu_s(os.getpid(), root=False)


def thread_cpu_s(pid: int) -> float:
    """CPU seconds so far of the main thread of ``pid``, at nanosecond
    resolution (``/proc/<pid>/task/<pid>/schedstat``)."""
    with open(f"/proc/{pid}/task/{pid}/schedstat") as handle:
        return int(handle.read().split()[0]) / 1e9


def steal_s() -> float:
    """Host-wide seconds the hypervisor has kept this machine's CPUs from it."""
    with open("/proc/stat") as handle:
        return int(handle.readline().split()[8]) / _TICK


# -- provenance ----------------------------------------------------------------


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content, in path order.

    The driver's checkout is not a git repository, so this stands in for
    the commit id there; it changes exactly when the program changes.
    """
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(run: Run) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": host_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": run.workload,
        "seed": run.seed,
        "trace": run.trace,
        "params": run.params,
    }
