"""Sharded/parallel executor: shard planning, determinism regression, and
the zero-copy shard transport lifecycle (crash hygiene, pool re-warming)."""

from __future__ import annotations

import datetime as dt
import os
import tempfile
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.core.shardio as shardio
import repro.util.parallel as parallel
from repro.core.study import Study, StudyConfig
from repro.net.plan import PlanConfig
from repro.observatories.base import OBSERVATION_COLUMNS
from repro.util.calendar import StudyCalendar
from repro.util.parallel import (
    DEFAULT_SHARD_DAYS,
    MODELS_MEMO_SIZE,
    effective_jobs,
    merge_shard_results,
    models_for,
    plan_shards,
    resolve_jobs,
    run_shard,
    shutdown_pool,
    simulate,
    warm_pool,
)


def _column_names() -> tuple[str, ...]:
    return tuple(name for name, _ in OBSERVATION_COLUMNS)


def _assert_identical(result_a, result_b) -> None:
    sinks_a, truth_a = result_a
    sinks_b, truth_b = result_b
    assert sorted(sinks_a) == sorted(sinks_b)
    for name in sinks_a:
        obs_a, obs_b = sinks_a[name], sinks_b[name]
        assert len(obs_a) == len(obs_b), name
        for column in _column_names():
            left = getattr(obs_a, column)
            right = getattr(obs_b, column)
            assert left.dtype == right.dtype, (name, column)
            assert np.array_equal(
                left, right, equal_nan=left.dtype.kind == "f"
            ), (name, column)
    assert sorted(truth_a) == sorted(truth_b)
    for attack_class in truth_a:
        assert np.array_equal(truth_a[attack_class], truth_b[attack_class])


class TestPlanShards:
    def test_covers_window_contiguously(self):
        shards = plan_shards(365)
        assert shards[0][0] == 0
        assert shards[-1][1] == 365
        for (_, stop), (start, _) in zip(shards, shards[1:]):
            assert stop == start

    def test_short_tail_merged_into_predecessor(self):
        # 100 = 3*28 + 16 > 14, tail kept; 90 = 3*28 + 6 < 14, tail merged.
        assert plan_shards(100)[-1] == (84, 100)
        assert plan_shards(90)[-1] == (56, 90)

    def test_window_shorter_than_shard(self):
        assert plan_shards(10) == ((0, 10),)

    def test_exact_multiple(self):
        assert plan_shards(56) == ((0, 28), (28, 56))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_shards(0)

    def test_independent_of_jobs(self):
        # The shard plan is a pure function of the window — this is what
        # makes parallel output identical to serial.
        assert all(
            stop - start == DEFAULT_SHARD_DAYS
            for start, stop in plan_shards(365)[:-1]
        )


class TestResolveJobs:
    def test_explicit_count_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_auto_detect_is_positive(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1


class TestEffectiveJobs:
    def test_clamps_to_work_units(self):
        assert effective_jobs(8, units=3) == 3
        assert effective_jobs(2, units=3) == 2

    def test_zero_units_still_yields_one_worker(self):
        assert effective_jobs(4, units=0) == 1

    def test_no_units_matches_resolve_jobs(self):
        assert effective_jobs(5) == 5
        assert effective_jobs(None) == resolve_jobs(None)
        assert effective_jobs(0, units=10) == min(resolve_jobs(0), 10)


@pytest.fixture(scope="module")
def short_config() -> StudyConfig:
    """~26 weeks, small plan: a few seconds to simulate, several shards."""
    return StudyConfig(
        seed=11,
        calendar=StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 7, 2)),
        dp_per_day=40.0,
        ra_per_day=30.0,
        plan=PlanConfig(seed=11, tail_as_count=80),
    )


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self, short_config):
        """The headline guarantee: jobs=4 output equals jobs=1 output."""
        serial = simulate(short_config, jobs=1)
        parallel = simulate(short_config, jobs=4)
        _assert_identical(serial, parallel)

    def test_rerun_is_stable(self, short_config):
        _assert_identical(
            simulate(short_config, jobs=1), simulate(short_config, jobs=1)
        )

    def test_shards_partition_the_event_stream(self, short_config):
        """Each record lands in exactly the shard owning its day."""
        shards = plan_shards(short_config.calendar.n_days)
        for start, stop in shards[:3]:
            sinks, _ = run_shard(short_config, start, stop)
            for observations in sinks.values():
                if len(observations):
                    assert observations.day.min() >= start
                    assert observations.day.max() < stop

    def test_merge_preserves_shard_order(self, short_config):
        shards = plan_shards(short_config.calendar.n_days)
        results = [run_shard(short_config, *shard) for shard in shards]
        sinks, truth = merge_shard_results(results)
        whole = simulate(short_config, jobs=1)
        _assert_identical((sinks, truth), whole)
        for observations in sinks.values():
            days = observations.day
            assert np.all(np.diff(days) >= 0), "merged days must be sorted"

    def test_merge_requires_results(self):
        with pytest.raises(ValueError):
            merge_shard_results([])


class TestShardTransport:
    """The zero-copy file handoff between workers and the collector."""

    def test_shard_file_roundtrip(self, short_config, tmp_path):
        """write_shard → read_shard reproduces the payload exactly."""
        start, stop = plan_shards(short_config.calendar.n_days)[0]
        sinks, truth = run_shard(short_config, start, stop)
        snapshot = {"counters": {"x": 1}}
        tree = {"key": "simulate.shard", "children": []}
        path = shardio.write_shard(
            tmp_path / "one.shard", sinks, truth, snapshot, tree
        )
        (read_sinks, read_truth), read_snapshot, read_tree = shardio.read_shard(
            path
        )
        _assert_identical((sinks, truth), (read_sinks, read_truth))
        assert read_snapshot == snapshot
        assert read_tree == tree

    def test_file_size_does_not_depend_on_span_timings(
        self, short_config, tmp_path
    ):
        """Replays of one shard write files of equal size whatever their
        span timings, so ``shardio.bytes`` is a work count."""

        def scaled(tree: dict, factor: float) -> dict:
            return {
                **tree,
                "wall_s": tree["wall_s"] * factor,
                "cpu_s": tree["cpu_s"] * factor,
                "children": [scaled(child, factor) for child in tree["children"]],
            }

        start, stop = plan_shards(short_config.calendar.n_days)[0]
        (sinks, truth), snapshot, tree = parallel._run_shard_task(
            (short_config, start, stop)
        )
        sizes = [
            shardio.write_shard(
                tmp_path / f"{factor}.shard", sinks, truth, snapshot,
                scaled(tree, factor),
            ).stat().st_size
            for factor in (1.0, 1.37, 1e6)
        ]
        assert len(set(sizes)) == 1, sizes

    def test_read_shard_rejects_foreign_files(self, tmp_path):
        bogus = tmp_path / "bogus.shard"
        bogus.write_bytes(b"definitely not a shard file")
        with pytest.raises(ValueError, match="not a shard file"):
            shardio.read_shard(bogus)

    def test_parallel_run_cleans_transport_dir(
        self, short_config, tmp_path, monkeypatch
    ):
        """Transport files live in the system temp dir, never under the
        cache root, and a finished run leaves none behind."""
        cache_dir, temp_dir = tmp_path / "cache", tmp_path / "tmp"
        temp_dir.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
        shutdown_pool()  # fresh workers must inherit the env override
        try:
            _assert_identical(
                simulate(short_config, jobs=2), simulate(short_config, jobs=1)
            )
        finally:
            shutdown_pool()
        assert not cache_dir.exists()
        assert not list(temp_dir.iterdir())

    def test_worker_crash_leaves_no_orphans_and_pool_rewarms(
        self, short_config, tmp_path, monkeypatch
    ):
        """A worker dying mid-write orphans nothing; the pool recovers.

        The crash is injected by patching ``write_shard`` *before* the
        pool forks, so every worker inherits a version that leaves a
        half-written file and dies.  The executor must surface
        ``BrokenProcessPool``, remove the per-run transport directory
        anyway, and allow the next parallel call to re-warm cleanly.
        """
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

        def crash_mid_write(path, *args, **kwargs):
            path.write_bytes(b"partial shard, about to die")
            os._exit(3)

        original = shardio.write_shard
        shutdown_pool()  # workers forked after the patch inherit it
        shardio.write_shard = crash_mid_write
        try:
            with pytest.raises(BrokenProcessPool):
                simulate(short_config, jobs=2)
        finally:
            shardio.write_shard = original
            shutdown_pool()
        leftovers = list(tmp_path.glob("**/*"))
        assert not leftovers, f"orphaned transport files: {leftovers}"
        # The broken pool was discarded; a fresh one warms and works.
        try:
            _assert_identical(
                simulate(short_config, jobs=2), simulate(short_config, jobs=1)
            )
        finally:
            shutdown_pool()

    def test_warm_pool_is_idempotent_and_shutdown_is_safe(self):
        try:
            assert warm_pool(2) == 2
            # Already big enough: kept (forked workers stay warm).
            assert warm_pool(1) == 2
        finally:
            shutdown_pool()
        shutdown_pool()  # safe when no pool exists
        try:
            assert warm_pool(1) == 1
        finally:
            shutdown_pool()


class TestModelsMemo:
    @pytest.fixture
    def built(self, monkeypatch):
        """Seeds ``build_models`` ran for, over an empty memo."""
        seeds: list[int] = []

        def build(config):
            seeds.append(config.seed)
            return object()

        monkeypatch.setattr(parallel, "_MODELS_MEMO", OrderedDict())
        monkeypatch.setattr(parallel, "build_models", build)
        return seeds

    def test_ninth_config_evicts_the_least_recently_used(self, built):
        configs = [StudyConfig(seed=seed) for seed in range(MODELS_MEMO_SIZE + 1)]
        models = [models_for(config) for config in configs]
        assert len(parallel._MODELS_MEMO) == MODELS_MEMO_SIZE
        assert models_for(configs[1]) is models[1]
        assert models_for(configs[-1]) is models[-1]
        assert built == list(range(MODELS_MEMO_SIZE + 1))
        # Seed 0 was the least recently used: it was evicted and rebuilds.
        assert models_for(configs[0]) is not models[0]
        assert built[-1] == 0

    def test_a_hit_refreshes_an_entry(self, built):
        configs = [StudyConfig(seed=seed) for seed in range(MODELS_MEMO_SIZE + 1)]
        models = [models_for(config) for config in configs[:-1]]
        assert models_for(configs[0]) is models[0]
        models_for(configs[-1])
        # The hit made seed 0 recent, so seed 1 went instead.
        assert models_for(configs[0]) is models[0]
        assert models_for(configs[1]) is not models[1]
        assert built == list(range(MODELS_MEMO_SIZE + 1)) + [1]


class TestStudyIntegration:
    def test_study_reads_the_shared_substrate(self, short_config):
        """Study serves the objects the shard executor simulates from."""
        study = Study(short_config, cache=False)
        models = models_for(short_config)
        assert study.plan is models.plan
        assert study.landscape is models.landscape
        assert study.campaigns is models.campaigns

    def test_study_jobs_kwarg(self, short_config):
        from repro.attacks.events import AttackClass

        serial = Study(short_config, jobs=1, cache=False)
        parallel = Study(short_config, jobs=2, cache=False)
        _assert_identical(
            (
                serial.observations,
                {ac: serial.ground_truth_weekly(ac) for ac in AttackClass},
            ),
            (
                parallel.observations,
                {ac: parallel.ground_truth_weekly(ac) for ac in AttackClass},
            ),
        )
