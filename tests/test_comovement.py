"""Tests for co-movement episode detection."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.comovement import (
    CoMovement,
    co_movement_episodes,
    sliding_correlation,
)
from repro.util.calendar import STUDY_CALENDAR


class TestSlidingCorrelation:
    def test_perfectly_correlated(self):
        a = np.arange(60, dtype=float)
        values = sliding_correlation(a, 2 * a + 5, window_weeks=13)
        assert len(values) == 48
        assert np.allclose(values, 1.0)

    def test_constant_windows_are_nan(self):
        a = np.ones(30)
        b = np.arange(30, dtype=float)
        values = sliding_correlation(a, b, window_weeks=10)
        assert np.isnan(values).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            sliding_correlation(np.ones(10), np.ones(12))
        with pytest.raises(ValueError):
            sliding_correlation(np.ones(10), np.ones(10), window_weeks=2)
        with pytest.raises(ValueError):
            sliding_correlation(np.ones(5), np.ones(5), window_weeks=13)

    def test_localised_correlation(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=120)
        b = rng.normal(size=120)
        shared = np.cumsum(rng.normal(size=40))
        a[40:80] = shared + rng.normal(0, 1e-3, 40)
        b[40:80] = shared + rng.normal(0, 1e-3, 40)
        values = sliding_correlation(a, b, window_weeks=13)
        inside = np.nanmean(values[45:65])
        outside = np.nanmean(np.concatenate([values[:25], values[90:]]))
        assert inside > outside + 0.3


class TestEpisodes:
    def make_series(self):
        rng = np.random.default_rng(1)
        n = 120
        base = {label: rng.normal(0, 1, n).cumsum() for label in "abcd"}
        # a and b share a strong common component in weeks 30-70.
        shared = rng.normal(0, 1, 40).cumsum() * 3
        base["a"][30:70] += shared
        base["b"][30:70] += shared
        return base

    def test_detects_shared_episode(self):
        episodes = co_movement_episodes(
            self.make_series(), window_weeks=13, threshold=0.7
        )
        ab = [e for e in episodes if e.members >= {"a", "b"}]
        assert ab, episodes
        episode = max(ab, key=lambda e: e.duration_weeks)
        # The episode must cover the shared 30-70 window (random-walk
        # noise can legitimately extend it at either end).
        assert episode.start_week <= 35
        assert episode.end_week >= 55
        assert episode.duration_weeks >= 10

    def test_no_episodes_for_independent_noise(self):
        rng = np.random.default_rng(2)
        series = {label: rng.normal(0, 1, 100) for label in "abc"}
        episodes = co_movement_episodes(
            series, window_weeks=13, threshold=0.85, min_duration_weeks=8
        )
        assert len(episodes) <= 1  # noise rarely sustains 0.85 for 8 weeks

    def test_requires_two_series(self):
        with pytest.raises(ValueError):
            co_movement_episodes({"a": np.ones(50)})

    def test_label_rendering(self):
        episode = CoMovement(
            start_week=100, end_week=113, members=frozenset({"x", "y"})
        )
        assert episode.duration_weeks == 13
        assert "x & y" in episode.label()
        labelled = episode.label(STUDY_CALENDAR)
        assert "2020Q4" in labelled or "2021Q1" in labelled

    def test_on_simulated_ra_series(self, small_study):
        series = {
            label: weekly.normalized
            for label, weekly in small_study.main_series().items()
            if "(RA)" in label
        }
        episodes = co_movement_episodes(series, threshold=0.5)
        # RA observatories share the 2020 surge: at least one episode.
        assert episodes
        assert all(len(episode.members) >= 2 for episode in episodes)


# Four series move together for 40 weeks, then split into two pairs that
# co-move until the end: both pair episodes close in the last window, and
# the first one in line absorbs the four-way episode.
_SPLIT_PAIRS = """
import numpy as np
from repro.core.comovement import co_movement_episodes

rng = np.random.default_rng(0)
first, left, right = rng.normal(size=(3, 40))
noise = rng.normal(scale=0.01, size=(4, 80))
series = {
    "a": np.concatenate([first, left]) + noise[0],
    "b": np.concatenate([first, left]) + noise[1],
    "c": np.concatenate([first, right]) + noise[2],
    "d": np.concatenate([first, right]) + noise[3],
}
episodes = co_movement_episodes(series, window_weeks=13, threshold=0.6)
print([(e.start_week, e.end_week, sorted(e.members)) for e in episodes])
"""


def test_episodes_do_not_depend_on_the_string_hash_seed():
    """Set order follows PYTHONHASHSEED; the episodes must not."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    outputs = set()
    for hash_seed in ("0", "1", "2", "3"):
        env["PYTHONHASHSEED"] = hash_seed
        result = subprocess.run(
            [sys.executable, "-c", _SPLIT_PAIRS],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            timeout=120,
        )
        outputs.add(result.stdout)
    assert outputs == {"[(0, 80, ['a', 'b']), (30, 80, ['c', 'd'])]\n"}
