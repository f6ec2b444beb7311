"""Tests for the consensus-trend estimator."""

import datetime as dt

import numpy as np
import pytest

from repro.attacks.events import AttackClass
from repro.core.consensus import (
    ConsensusEvaluation,
    consensus,
    evaluate_consensus,
    shape_error,
)
from repro.core.timeseries import WeeklySeries
from repro.util.calendar import StudyCalendar

CALENDAR = StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 12, 31))


def series_from(values, label="x"):
    return WeeklySeries(label=label, counts=np.asarray(values), calendar=CALENDAR)


def noisy_family(rng, truth, n=4, noise=0.2):
    return {
        f"obs{i}": series_from(truth * rng.lognormal(0, noise, len(truth)), f"obs{i}")
        for i in range(n)
    }


class TestConsensusView:
    def test_median_of_identical_series_is_the_series(self):
        truth = np.linspace(10, 30, CALENDAR.n_weeks)
        family = {
            "a": series_from(truth),
            "b": series_from(truth * 2),  # same shape, different scale
        }
        view = consensus(family)
        # Normalisation removes the scale: both rows identical.
        assert np.allclose(view.matrix[0], view.matrix[1])
        assert np.allclose(view.median, view.q1)
        assert view.mean_dispersion == pytest.approx(0.0)

    def test_dispersion_grows_with_noise(self):
        rng = np.random.default_rng(0)
        truth = np.linspace(10, 30, CALENDAR.n_weeks)
        quiet = consensus(noisy_family(rng, truth, noise=0.05))
        loud = consensus(noisy_family(rng, truth, noise=0.5))
        assert loud.mean_dispersion > quiet.mean_dispersion

    def test_requires_two_series(self):
        with pytest.raises(ValueError):
            consensus({"a": series_from(np.ones(CALENDAR.n_weeks))})


class TestShapeError:
    def test_zero_for_scaled_copies(self):
        truth = np.linspace(10, 30, CALENDAR.n_weeks)
        assert shape_error(truth * 7, truth) == pytest.approx(0.0)

    def test_positive_for_different_shapes(self):
        up = np.linspace(10, 30, CALENDAR.n_weeks)
        down = np.linspace(30, 10, CALENDAR.n_weeks)
        assert shape_error(up, down) > 0.1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            shape_error(np.ones(20), np.ones(30))


class TestEvaluation:
    def test_consensus_beats_noisy_platforms(self):
        rng = np.random.default_rng(2)
        truth = np.linspace(10, 40, CALENDAR.n_weeks) * (
            1 + 0.3 * np.sin(np.arange(CALENDAR.n_weeks) / 5)
        )
        family = noisy_family(rng, truth, n=6, noise=0.3)
        evaluation = evaluate_consensus(family, truth)
        assert isinstance(evaluation, ConsensusEvaluation)
        assert evaluation.beats_median_platform

    def test_on_simulated_study(self, small_study):
        dp_series = {
            label: weekly
            for label, weekly in small_study.main_series().items()
            if "(RA)" not in label
        }
        truth = small_study.ground_truth_weekly(AttackClass.DIRECT_PATH)
        evaluation = evaluate_consensus(dp_series, truth)
        # Pooling partial views recovers the landscape better than the
        # typical single observatory (the paper's data-sharing argument).
        assert evaluation.beats_median_platform

    def test_ground_truth_weekly_totals(self, small_study):
        dp = small_study.ground_truth_weekly(AttackClass.DIRECT_PATH)
        ra = small_study.ground_truth_weekly(
            AttackClass.REFLECTION_AMPLIFICATION
        )
        assert len(dp) == small_study.calendar.n_weeks
        assert dp.sum() > 0 and ra.sum() > 0
        # Observed counts are strictly fewer than ground truth everywhere.
        for name in ("UCSD", "Hopscotch", "Netscout"):
            observed = len(small_study.observations[name])
            assert observed < dp.sum() + ra.sum()
