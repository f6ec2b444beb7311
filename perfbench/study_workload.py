"""The ``study`` workload: a cold then a warm study, closed loop, one caller.

A repetition runs a **cold** study in an empty cache directory (simulate
on ``jobs`` workers, store to the cache, build every registered artifact
as canonical bytes, run conformance), then reopens the same study
**warm** (load from the cache, build every artifact, run conformance).

Each repetition takes the next of ``CONFIGS`` configs of the pinned
69-week window, ``small_pinned_config(CONFIGS * seed + i)``.  The work of
one config varies by 10-15% from seed to seed, so a run reports the mean
over its repetitions, one config each, and then repeats the first config
once, untimed, to check that a repetition reproduces its bytes.
``perfbench/README.md`` says why not the full window.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import time
from contextlib import nullcontext
from pathlib import Path

from perfbench.common import Deadline, Run, mean, tree_peak_rss_mb, work_cpu_s
from perfbench.spans import Tracer

GOLDEN = "seed0-small"
#: Configs one run rotates through (more than a run has repetitions).
CONFIGS = 8


def small_config(seed: int):
    from repro.core.golden import small_pinned_config

    return small_pinned_config(seed)


def study_once(config, jobs: int, cache_dir: Path, tracer: Tracer | None = None):
    """One study over ``cache_dir``: observations, every artifact, conformance.

    Returns ``(wall s, CPU s of this process and its pool workers,
    {artifact: sha256}, conformance statuses, study)``.
    """
    from repro.core.artifacts import artifact_json_bytes, artifact_names
    from repro.core.study import Study

    def span(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    cpu = work_cpu_s()
    started = time.perf_counter()
    study = Study(config, jobs=jobs, cache_dir=str(cache_dir))
    with span("study.observations"):
        study.observations
    blobs = {}
    for name in artifact_names():
        with span(f"study.{name}"):
            blobs[name] = artifact_json_bytes(study.artifact(name))
    with span("study.conformance"):
        statuses = study.conformance().statuses()
    elapsed = time.perf_counter() - started
    cpu = work_cpu_s() - cpu
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}
    return elapsed, cpu, digests, statuses, study


def check_golden(study, name: str, run: Run, what: str) -> None:
    from repro.core.golden import verify_study

    comparison = verify_study(study, name)
    run.check(
        comparison.status == "match",
        f"{what}: golden {name} {comparison.status} {comparison.mismatches[:3]}",
    )


class StudyWorkload:
    """Cold and warm studies of one config; every output checked."""

    def __init__(self, seed: int, jobs: int, work: Path, run: Run) -> None:
        self.seed = seed
        self.jobs = jobs
        self.work = work
        self.run = run
        self.configs = [small_config(CONFIGS * seed + i) for i in range(CONFIGS)]
        self.replay_config = self.configs[0]
        self.reference: dict[int, tuple[dict, dict]] = {}
        self.count = 0

    def params(self) -> dict:
        calendar = self.replay_config.calendar
        return {
            "configs": [
                f"small_pinned_config({config.seed})" for config in self.configs
            ],
            "window": f"{calendar.start}..{calendar.end}",
            "n_weeks": calendar.n_weeks,
            "jobs": self.jobs,
            "callers": 1,
            "golden": GOLDEN if self.seed == 0 else None,
        }

    def setup(self) -> None:
        """Build the configs' models, then fork the pool so workers share them."""
        from repro.util.parallel import models_for, warm_pool

        for config in self.configs:
            models_for(config)
        warm_pool(self.jobs)

    def repetition(
        self, tracer: Tracer | None = None, index: int | None = None
    ) -> dict[str, float]:
        """One cold then one warm study of config ``index`` (default: the
        next in the rotation); wall and CPU seconds of each half."""
        if index is None:
            index = self.count % CONFIGS
        config = self.configs[index]
        directory = self.work / f"rep-{self.count}"
        self.count += 1
        gc.collect()
        cold_s, cold_cpu_s, cold_digests, cold_statuses, _ = study_once(
            config, self.jobs, directory, tracer
        )
        gc.collect()
        warm_s, warm_cpu_s, warm_digests, warm_statuses, warm_study = study_once(
            config, self.jobs, directory, tracer
        )
        if index not in self.reference:
            self.reference[index] = (cold_digests, cold_statuses)
            if config.seed == 0:
                check_golden(warm_study, GOLDEN, self.run, "study")
        self.run.check(
            (cold_digests, cold_statuses) == self.reference[index],
            "study: cold artifact bytes or conformance differ from an earlier repetition",
        )
        self.run.check(
            (warm_digests, warm_statuses) == self.reference[index],
            "study: warm artifact bytes or conformance differ from the cold study",
        )
        shutil.rmtree(directory, ignore_errors=True)
        return {"cold": cold_s, "cold_cpu": cold_cpu_s, "warm": warm_s, "warm_cpu": warm_cpu_s}

    def measure(self, seconds: float) -> None:
        samples: dict[str, list[float]] = {}
        deadline = Deadline(seconds)
        while deadline.more():
            started = time.perf_counter()
            for key, value in self.repetition().items():
                samples.setdefault(key, []).append(value)
            deadline.done(time.perf_counter() - started)
        self.repetition(index=0)
        self.run.metric("cold_cpu_s", mean(samples["cold_cpu"]), "s")
        self.run.metric("warm_cpu_ms", mean(samples["warm_cpu"]) * 1e3, "ms")
        self.run.note("cold_study_s", mean(samples["cold"]), "s", len(samples["cold"]))
        self.run.note("warm_study_s", mean(samples["warm"]), "s", len(samples["warm"]))

    def unit(self, tracer: Tracer | None) -> float:
        """The traced run's unit: one repetition, spans around each call."""
        times = self.repetition(tracer)
        return times["cold"] + times["warm"]

    def layer_notes(self, tracer: Tracer) -> None:
        """The replay already covers every layer this workload touches."""

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(os.getpid())

    def close(self) -> None:
        """Nothing to stop: the pool is shut down at interpreter exit."""
