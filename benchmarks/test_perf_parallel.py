"""Performance — sharded parallel execution and the on-disk result cache.

Not a paper artefact: tracks the executor's scaling (serial vs 2 and 4
worker processes over the same shard plan) and the cache's warm-load
speedup.  Worker counts that exceed the cores this process may actually
use are *not* timed — oversubscribed numbers only measure scheduler
thrash — and the report carries an explicit ``SKIPPED`` line instead, so
``PERF_parallel.txt`` history stays honest across differently-sized
runners.  The scaling gate applies only when the cores exist.
"""

import datetime as dt
import os
import time

from repro.core.cache import StudyCache, config_fingerprint
from repro.core.study import Study, StudyConfig
from repro.net.plan import PlanConfig
from repro.util.calendar import StudyCalendar
from repro.util.parallel import plan_shards, simulate

CALENDAR = StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 6, 30))

CONFIG = StudyConfig(
    seed=0,
    calendar=CALENDAR,
    dp_per_day=80.0,
    ra_per_day=60.0,
    plan=PlanConfig(seed=0, tail_as_count=120),
)

#: Cores this process may use — the honest parallelism ceiling.
AVAILABLE_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def _timed(jobs: int) -> float:
    start = time.perf_counter()
    simulate(CONFIG, jobs=jobs)
    return time.perf_counter() - start


def test_perf_parallel(benchmark, report):
    shards = plan_shards(CALENDAR.n_days)

    serial_s = min(_timed(1) for _ in range(2))
    timings: dict[int, float | None] = {1: serial_s}
    for jobs in (2, 4):
        if jobs > AVAILABLE_CORES:
            timings[jobs] = None  # reported as SKIPPED below
        elif jobs == 4:
            benchmark.pedantic(
                lambda: simulate(CONFIG, jobs=4), rounds=3, iterations=1
            )
            timings[jobs] = benchmark.stats.stats.min
        else:
            timings[jobs] = min(_timed(jobs) for _ in range(2))
    if timings[4] is None:
        # The benchmark fixture must still run once per test; time the
        # largest worker count this machine can actually host.
        runnable = max(jobs for jobs, t in timings.items() if t is not None)
        benchmark.pedantic(
            lambda: simulate(CONFIG, jobs=runnable), rounds=1, iterations=1
        )

    lines = [
        "Parallel execution - sharded simulation, serial vs workers",
        "",
        f"window: {CALENDAR.n_weeks} weeks, {len(shards)} shards of "
        f"~{shards[0][1] - shards[0][0]} days, {AVAILABLE_CORES} CPU(s) available",
        "",
        f"  jobs=1  {serial_s:6.2f}s   (baseline)",
    ]
    for jobs in (2, 4):
        timing = timings[jobs]
        if timing is None:
            lines.append(
                f"  jobs={jobs}  SKIPPED (jobs={jobs} > cores={AVAILABLE_CORES})"
            )
        else:
            lines.append(
                f"  jobs={jobs}  {timing:6.2f}s   ({serial_s / timing:4.2f}x)"
            )
    report("PERF_parallel", "\n".join(lines))

    # Output equality for any worker count is covered by
    # tests/test_parallel.py; here we only gate scaling, and only on
    # machines that can physically provide it.
    if AVAILABLE_CORES >= 4:
        assert timings[4] is not None
        assert serial_s / timings[4] >= 2.5, (
            f"expected >=2.5x at 4 workers, got {serial_s / timings[4]:.2f}x"
        )


def test_perf_cache_warm_load(benchmark, report, tmp_path):
    fingerprint = config_fingerprint(CONFIG)

    cold_start = time.perf_counter()
    first = Study(CONFIG, cache=True, cache_dir=tmp_path)
    first.observations
    cold_s = time.perf_counter() - cold_start
    assert StudyCache(tmp_path).entries(), "cold run must populate the cache"

    def warm_run():
        study = Study(CONFIG, cache=True, cache_dir=tmp_path)
        return study.observations

    benchmark.pedantic(warm_run, rounds=5, iterations=1)
    warm_s = benchmark.stats.stats.min
    size_mb = StudyCache(tmp_path).total_bytes() / 1e6

    report(
        "PERF_cache",
        "Result cache - cold simulate vs warm load\n\n"
        f"entry: study-{fingerprint[:12]}....shard ({size_mb:.1f} MB)\n"
        f"  cold (simulate + store)  {cold_s:6.2f}s\n"
        f"  warm (load)              {warm_s:6.3f}s   "
        f"({cold_s / warm_s:.0f}x faster)",
    )
    assert warm_s < 0.1 * cold_s, (
        f"warm load ({warm_s:.3f}s) should be <10% of cold ({cold_s:.2f}s)"
    )
