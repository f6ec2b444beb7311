"""Metamorphic guarantees of the instrumented pipeline.

Two contracts, both load-bearing for the observability layer:

* **jobs invariance of the merged metrics** — the deterministic shard
  merge means ``--jobs 1``, ``--jobs 2``, and ``--jobs 4`` report
  identical counters, gauges, and histogram observations (timings on the
  span tree vary; its *shape and call counts* do not);
* **observation invisibility** — tracing on vs. off (and even
  ``obs.set_enabled(False)``) never changes a byte of simulation
  output, because instrumentation reads no RNG stream.
"""

from __future__ import annotations

import datetime as dt
import sys
import threading

import pytest

from repro import obs
from repro.core.study import StudyConfig
from repro.net.plan import PlanConfig
from repro.util.calendar import StudyCalendar
from repro.util.parallel import simulate
from tests.test_parallel import _assert_identical

WEEKS = 8


def tiny_config(seed: int = 11) -> StudyConfig:
    start = dt.date(2019, 1, 1)
    return StudyConfig(
        seed=seed,
        calendar=StudyCalendar(start, start + dt.timedelta(days=WEEKS * 7)),
        dp_per_day=12.0,
        ra_per_day=9.0,
        plan=PlanConfig(seed=seed, tail_as_count=60),
    )


def observed_run(config: StudyConfig, jobs: int):
    """One simulation inside a fresh collection context; returns
    (result, metrics snapshot, span tree)."""
    with obs.collecting() as registry, obs.tracing() as tracer:
        result = simulate(config, jobs=jobs)
        return result, registry.snapshot(), tracer.tree()


def _shape(tree: dict) -> dict:
    """Span tree reduced to its jobs-invariant part.

    Drops timings (wall-clock facts) and the memoised model-build spans:
    whether ``campaigns.build`` fires in a given shard depends on how
    warm the per-process ``models_for`` memo already is — the same
    process-lifetime dependence that keeps counters out of build paths.
    """
    return {
        "key": tree["key"],
        "count": tree["count"],
        "errors": tree["errors"],
        "children": sorted(
            (
                _shape(child)
                for child in tree["children"]
                if not child["key"].endswith(".build")
            ),
            key=lambda node: node["key"],
        ),
    }


class TestJobsInvariance:
    @pytest.fixture(scope="class")
    def runs(self):
        config = tiny_config()
        return {jobs: observed_run(config, jobs) for jobs in (1, 2, 4)}

    def test_results_identical(self, runs):
        _assert_identical(runs[1][0], runs[2][0])
        _assert_identical(runs[1][0], runs[4][0])

    def test_merged_metrics_identical(self, runs):
        base = runs[1][1]
        assert base["counters"], "instrumentation recorded nothing"
        for jobs in (2, 4):
            assert runs[jobs][1] == base, f"jobs={jobs} changed the metrics"

    def test_span_tree_shape_identical(self, runs):
        base = _shape(runs[1][2])
        for jobs in (2, 4):
            assert _shape(runs[jobs][2]) == base, (
                f"jobs={jobs} changed the span tree shape"
            )

    def test_expected_instruments_present(self, runs):
        snapshot = runs[1][1]
        assert snapshot["counters"]["generate.days"] == WEEKS * 7
        assert any(
            key.startswith("observe.records") for key in snapshot["counters"]
        )
        assert snapshot["gauges"]["simulate.shards"] >= 1
        assert len(snapshot["histograms"]["generate.batch_events"]) == WEEKS * 7


class TestObservationInvisibility:
    def test_disabled_tracing_gives_identical_artefacts(self):
        config = tiny_config(seed=12)
        enabled_result, snapshot, _ = observed_run(config, jobs=2)
        assert snapshot["counters"], "sanity: the enabled arm must record"
        obs.set_enabled(False)
        try:
            disabled_result, empty_snapshot, empty_tree = observed_run(
                config, jobs=2
            )
        finally:
            obs.set_enabled(True)
        _assert_identical(enabled_result, disabled_result)
        assert empty_snapshot["counters"] == {}
        assert empty_tree["children"] == []

    def test_kill_switch_returns_noops(self):
        """While disabled, every helper hands out shared no-op objects and
        nothing lands in the ambient registry or tracer."""
        obs.set_enabled(False)
        try:
            assert obs.counter("x") is obs.counter("y")
            with obs.collecting() as registry, obs.tracing() as tracer:
                obs.counter("x").inc(5)
                obs.gauge("g").set(1.0)
                obs.histogram("h").observe(2.0)
                with obs.span("phase", tag=1):
                    pass
                assert len(registry) == 0
                assert tracer.root.children == {}
        finally:
            obs.set_enabled(True)


class TestPerThreadContexts:
    """Metric contexts nest per thread, as tracers do."""

    def test_concurrent_simulations_keep_their_own_contexts(self):
        configs = [tiny_config(seed=seed) for seed in (31, 32, 33)]
        serial = [observed_run(config, jobs=1) for config in configs]
        barrier = threading.Barrier(len(configs))
        outcomes: list = [None] * len(configs)

        def run(index: int) -> None:
            barrier.wait(timeout=60)
            try:
                outcomes[index] = observed_run(configs[index], jobs=1)
            except Exception as error:  # reported by the asserts below
                outcomes[index] = error

        threads = [
            threading.Thread(target=run, args=(index,))
            for index in range(len(configs))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (result, snapshot, _), outcome in zip(serial, outcomes):
            assert isinstance(outcome, tuple), repr(outcome)
            _assert_identical(result, outcome[0])
            assert outcome[1] == snapshot

    def test_a_thread_without_a_context_records_into_the_main_threads(self):
        scoped: list = []

        def bare() -> None:
            obs.counter("thread.bare").inc()

        def own() -> None:
            with obs.collecting() as registry:
                obs.counter("thread.own").inc()
            scoped.append(registry)

        with obs.collecting() as main:
            for target in (bare, own):
                thread = threading.Thread(target=target)
                thread.start()
                thread.join(timeout=10)
                assert not thread.is_alive()
        assert main.snapshot()["counters"] == {"thread.bare": 1}
        assert scoped[0].snapshot()["counters"] == {"thread.own": 1}
