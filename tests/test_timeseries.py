"""Tests for time-series normalisation, EWMA, and trend lines."""

import datetime as dt

import numpy as np
import pytest

from repro.core.timeseries import (
    BASELINE_WEEKS,
    EWMA_SPAN,
    WeeklySeries,
    ewma,
    normalize,
)
from repro.util.calendar import StudyCalendar

CALENDAR = StudyCalendar(dt.date(2019, 1, 1), dt.date(2020, 4, 30))


class TestNormalize:
    def test_divides_by_baseline_median(self):
        values = np.ones(30) * 4.0
        values[:BASELINE_WEEKS] = [2.0] * BASELINE_WEEKS
        normalized = normalize(values)
        assert normalized[0] == pytest.approx(1.0)
        assert normalized[-1] == pytest.approx(2.0)

    def test_zero_median_falls_back_to_nonzero_baseline_weeks(self):
        values = np.zeros(30)
        values[1] = 10.0
        values[2] = 10.0
        values[20] = 20.0
        normalized = normalize(values)
        # Median of non-zero baseline values is 10.
        assert normalized[20] == pytest.approx(2.0)

    def test_all_zero_baseline_uses_series_nonzero_median(self):
        values = np.zeros(30)
        values[20] = 8.0
        normalized = normalize(values)
        assert normalized[20] == pytest.approx(1.0)

    def test_all_zero_series_unchanged(self):
        values = np.zeros(30)
        assert normalize(values).tolist() == values.tolist()

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.ones(10))

    def test_paper_constants(self):
        assert BASELINE_WEEKS == 15
        assert EWMA_SPAN == 12


class TestEwma:
    def test_constant_series_unchanged(self):
        values = np.full(40, 7.0)
        assert np.allclose(ewma(values), 7.0)

    def test_smoothing_reduces_variance(self):
        rng = np.random.default_rng(0)
        values = rng.random(100)
        smoothed = ewma(values)
        assert smoothed.var() < values.var()

    def test_matches_pandas_adjusted_formula(self):
        # Reference implementation of pandas ewm(span=s, adjust=True).mean().
        values = np.asarray([1.0, 5.0, 2.0, 8.0, 3.0])
        span = 12
        alpha = 2 / (span + 1)
        weights = (1 - alpha) ** np.arange(len(values))[::-1]
        expected_last = (weights * values).sum() / weights.sum()
        assert ewma(values, span)[-1] == pytest.approx(expected_last)

    def test_first_value_preserved(self):
        values = np.asarray([3.0, 100.0, 100.0])
        assert ewma(values)[0] == pytest.approx(3.0)

    def test_bad_span_rejected(self):
        with pytest.raises(ValueError):
            ewma(np.ones(5), span=0)


class TestWeeklySeries:
    def make(self, counts=None):
        if counts is None:
            counts = np.linspace(10, 30, CALENDAR.n_weeks)
        return WeeklySeries(label="test", counts=counts, calendar=CALENDAR)

    def test_length_must_match_calendar(self):
        with pytest.raises(ValueError):
            WeeklySeries(label="bad", counts=np.ones(10), calendar=CALENDAR)

    def test_normalized_cached_and_consistent(self):
        series = self.make()
        assert series.normalized is series.normalized
        assert np.median(series.normalized[:BASELINE_WEEKS]) == pytest.approx(1.0)

    def test_trend_line_positive_for_growth(self):
        series = self.make()
        line = series.trend_line()
        assert line.slope_per_week > 0
        assert line.slope_per_year == pytest.approx(line.slope_per_week * 52.1775)

    def test_trend_lines_by_year(self):
        series = self.make()
        lines = series.trend_lines_by_year(years=(2019, 2020))
        assert lines[2019].start_week == 0
        assert lines[2020].start_week == CALENDAR.week_of_date(dt.date(2020, 1, 1))

    def test_peak_week(self):
        counts = np.ones(CALENDAR.n_weeks)
        counts[40] = 100.0
        assert self.make(counts).peak_week() == 40

    def test_len(self):
        assert len(self.make()) == CALENDAR.n_weeks
