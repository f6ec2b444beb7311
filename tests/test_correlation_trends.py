"""Tests for correlation matrices, quarterly boxes, and trend classes."""

import datetime as dt

import numpy as np
import pytest
import scipy.stats

from repro.core.correlation import (
    BoxStats,
    box_stats,
    correlation_matrix,
    quarterly_correlations,
)
from repro.core.trends import (
    FOUR_YEARS_WEEKS,
    Trend,
    classify_trend,
)
from repro.util.calendar import StudyCalendar

CALENDAR = StudyCalendar(dt.date(2019, 1, 1), dt.date(2020, 6, 30))


class TestCorrelationMatrix:
    def series(self):
        rng = np.random.default_rng(0)
        base = np.sin(np.linspace(0, 6, 80))
        return {
            "a": base + rng.normal(0, 0.1, 80),
            "b": base + rng.normal(0, 0.1, 80),
            "c": rng.normal(0, 1, 80),
        }

    def test_symmetry_and_unit_diagonal(self):
        matrix = correlation_matrix(self.series())
        assert np.allclose(matrix.coefficients, matrix.coefficients.T)
        assert np.allclose(np.diag(matrix.coefficients), 1.0)

    def test_correlated_pair_detected(self):
        matrix = correlation_matrix(self.series())
        assert matrix.coefficients[0, 1] > 0.8
        assert matrix.p_values[0, 1] < 0.01

    def test_uncorrelated_pair_insignificant(self):
        matrix = correlation_matrix(self.series())
        mask = matrix.significant_mask()
        labels = matrix.labels
        i, j = labels.index("a"), labels.index("c")
        assert abs(matrix.coefficients[i, j]) < 0.4
        assert not mask[i, j]
        assert matrix.p_values[i, j] == pytest.approx(0.75, abs=0.01)

    def test_pearson_method(self):
        matrix = correlation_matrix(self.series(), method="pearson")
        assert matrix.method == "pearson"
        assert matrix.coefficients[0, 1] > 0.8

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            correlation_matrix(self.series(), method="kendall")

    def test_single_series_rejected(self):
        with pytest.raises(ValueError):
            correlation_matrix({"a": np.ones(10)})

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            correlation_matrix({"a": np.ones(10), "b": np.ones(12)})


class TestMatrixAgainstScipy:
    """Every off-diagonal entry equals scipy's per-pair result."""

    REFERENCE = {
        "spearman": scipy.stats.spearmanr,
        "pearson": scipy.stats.pearsonr,
    }

    def check(self, series, method):
        matrix = correlation_matrix(series, method)
        labels = matrix.labels
        for i, a in enumerate(labels):
            assert matrix.coefficients[i, i] == 1.0
            assert matrix.p_values[i, i] == 0.0
            for j in range(i + 1, len(labels)):
                r, p = self.REFERENCE[method](series[a], series[labels[j]])
                for entries in (matrix.coefficients, matrix.p_values):
                    assert entries[i, j] == entries[j, i]
                assert matrix.coefficients[i, j] == pytest.approx(r, abs=1e-12)
                assert matrix.p_values[i, j] == pytest.approx(p, abs=1e-9)
        return matrix

    @pytest.mark.parametrize("method", ["spearman", "pearson"])
    def test_random_ties_and_noise(self, method):
        rng = np.random.default_rng(7)
        series = {
            "ties": rng.integers(0, 4, 40).astype(float),
            "sparse": np.where(rng.random(40) < 0.8, 0.0, rng.random(40)),
            "noise": rng.normal(size=40),
            "trend": np.arange(40.0) + rng.normal(0, 5, 40),
        }
        self.check(series, method)

    @pytest.mark.parametrize("method", ["spearman", "pearson"])
    def test_three_points(self, method):
        series = {"a": np.array([1.0, 2.0, 4.0]), "b": np.array([3.0, 1.0, 2.0])}
        matrix = self.check(series, method)
        assert 0.0 < matrix.p_values[0, 1] < 1.0

    @pytest.mark.parametrize("method", ["spearman", "pearson"])
    def test_perfect_correlation_has_p_zero(self, method):
        x = np.arange(12.0)
        matrix = correlation_matrix({"x": x, "up": 3 * x + 1, "down": -x}, method)
        assert matrix.coefficients[0, 1] == 1.0
        assert matrix.coefficients[0, 2] == -1.0
        assert matrix.p_values[0, 1] == 0.0
        assert matrix.p_values[0, 2] == 0.0

    @pytest.mark.parametrize("method", ["spearman", "pearson"])
    def test_constant_column_is_zero_with_p_one(self, method):
        rng = np.random.default_rng(3)
        series = {
            "a": rng.normal(size=20),
            "flat": np.full(20, 2.0),
            "b": rng.normal(size=20),
        }
        matrix = correlation_matrix(series, method)
        for other in (0, 2):
            assert matrix.coefficients[1, other] == matrix.coefficients[other, 1] == 0.0
            assert matrix.p_values[1, other] == matrix.p_values[other, 1] == 1.0
        assert matrix.coefficients[1, 1] == 1.0
        r, p = self.REFERENCE[method](series["a"], series["b"])
        assert matrix.coefficients[0, 2] == pytest.approx(r, abs=1e-12)
        assert matrix.p_values[0, 2] == pytest.approx(p, abs=1e-9)


class TestQuarterlyCorrelations:
    def test_one_value_per_full_quarter(self):
        rng = np.random.default_rng(1)
        a = rng.random(CALENDAR.n_weeks)
        b = rng.random(CALENDAR.n_weeks)
        values = quarterly_correlations({"a": a, "b": b}, CALENDAR)[("a", "b")]
        # 2019Q1..2020Q2 inclusive = 6 quarters (all with >= 4 weeks).
        assert len(values) == 6
        assert all(-1.0 <= value <= 1.0 for value in values)

    def test_constant_quarters_skipped(self):
        a = np.zeros(CALENDAR.n_weeks)
        b = np.arange(CALENDAR.n_weeks, dtype=float)
        assert quarterly_correlations({"a": a, "b": b}, CALENDAR) == {("a", "b"): []}

    def test_perfectly_correlated(self):
        a = np.arange(CALENDAR.n_weeks, dtype=float)
        values = quarterly_correlations({"a": a, "b": 2 * a}, CALENDAR)[("a", "b")]
        assert all(value == pytest.approx(1.0) for value in values)

    def test_every_pair_in_series_order(self):
        rng = np.random.default_rng(2)
        series = {name: rng.random(CALENDAR.n_weeks) for name in "cab"}
        assert list(quarterly_correlations(series, CALENDAR)) == [
            ("c", "a"),
            ("c", "b"),
            ("a", "b"),
        ]

    def test_short_quarter_skipped(self):
        # 28 weeks: 2019Q1 and Q2 have 13 weeks each, 2019Q3 only 2.
        calendar = StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 7, 20))
        assert [len(weeks) for weeks in calendar.quarter_weeks.values()] == [13, 13, 2]
        rng = np.random.default_rng(4)
        a = rng.random(calendar.n_weeks)
        b = rng.random(calendar.n_weeks)
        values = quarterly_correlations({"a": a, "b": b}, calendar)[("a", "b")]
        expected = [
            scipy.stats.spearmanr(a[weeks], b[weeks])[0]
            for weeks in list(calendar.quarter_weeks.values())[:2]
        ]
        assert values == pytest.approx(expected, abs=1e-12)

    def test_constant_sub_series_drops_only_its_pairs(self):
        rng = np.random.default_rng(5)
        quarters = list(CALENDAR.quarter_weeks.values())
        a = rng.random(CALENDAR.n_weeks)
        b = rng.random(CALENDAR.n_weeks)
        flat = rng.random(CALENDAR.n_weeks)
        flat[quarters[2]] = 0.0  # like an IXP quarter with no blackholing
        values = quarterly_correlations({"a": a, "flat": flat, "b": b}, CALENDAR)
        assert len(values[("a", "b")]) == 6
        assert len(values[("a", "flat")]) == len(values[("flat", "b")]) == 5
        assert values[("a", "b")][2] == pytest.approx(
            scipy.stats.spearmanr(a[quarters[2]], b[quarters[2]])[0], abs=1e-12
        )
        expected = [
            scipy.stats.spearmanr(a[weeks], flat[weeks])[0]
            for index, weeks in enumerate(quarters)
            if index != 2
        ]
        assert values[("a", "flat")] == pytest.approx(expected, abs=1e-12)


def per_sample_box(values):
    """The reference: each statistic of one sample by its own numpy call."""
    array = np.asarray(values, dtype=np.float64)
    return BoxStats(
        minimum=float(array.min()),
        q1=float(np.percentile(array, 25)),
        median=float(np.median(array)),
        q3=float(np.percentile(array, 75)),
        maximum=float(array.max()),
        mean=float(array.mean()),
        n=len(array),
    )


class TestBoxStats:
    def test_summary_values(self):
        stats = box_stats({"x": [1.0, 2.0, 3.0, 4.0, 5.0]})["x"]
        assert stats.minimum == 1.0
        assert stats.median == 3.0
        assert stats.maximum == 5.0
        assert stats.mean == 3.0
        assert stats.n == 5
        assert stats.q1 == 2.0
        assert stats.q3 == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats({"x": []})
        with pytest.raises(ValueError):
            box_stats({"x": [1.0], "y": []})

    def test_grouped_equals_per_sample_statistics(self):
        """Boxing samples grouped by size gives, bit for bit, what one
        numpy call per statistic and sample gives, on sizes 1-20."""
        rng = np.random.default_rng(14)
        samples = {}
        for index in range(400):
            size = int(rng.integers(1, 21))
            values = rng.uniform(-1.0, 1.0, size) * 10.0 ** int(rng.integers(-6, 6))
            samples[(index, size)] = values.tolist()
        boxes = box_stats(samples)
        assert list(boxes) == list(samples)
        for key, values in samples.items():
            assert boxes[key] == per_sample_box(values), key


class TestTrendClassification:
    def test_increasing(self):
        values = np.linspace(1.0, 2.0, FOUR_YEARS_WEEKS)
        result = classify_trend(values)
        assert result.trend is Trend.INCREASING
        assert result.symbol == "▲"
        assert result.relative_change > 0.5

    def test_decreasing(self):
        values = np.linspace(2.0, 1.0, FOUR_YEARS_WEEKS)
        assert classify_trend(values).trend is Trend.DECREASING

    def test_steady(self):
        rng = np.random.default_rng(2)
        values = 1.0 + rng.normal(0, 0.01, FOUR_YEARS_WEEKS)
        assert classify_trend(values).trend is Trend.STEADY

    def test_threshold_boundaries(self):
        up_4_percent = np.linspace(1.0, 1.04, FOUR_YEARS_WEEKS)
        up_6_percent = np.linspace(1.0, 1.06, FOUR_YEARS_WEEKS)
        assert classify_trend(up_4_percent).trend is Trend.STEADY
        assert classify_trend(up_6_percent).trend is Trend.INCREASING

    def test_horizon_clipping(self):
        values = np.linspace(1.0, 2.0, 100)
        result = classify_trend(values, horizon_weeks=500)
        assert result.horizon_weeks == 100

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            classify_trend(np.asarray([1.0]))

    def test_symbols(self):
        assert str(Trend.INCREASING) == "▲"
        assert str(Trend.DECREASING) == "▼"
        assert str(Trend.STEADY) == "◆"
