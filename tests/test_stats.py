"""Tests for the correlation statistics (cross-checked against scipy)."""

import datetime as dt
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.correlation import correlation_matrix, quarterly_correlations
from repro.core.stats import (
    Correlation,
    ols_line,
    p_values,
    pearson,
    rankdata,
    spearman,
)
from repro.util.calendar import StudyCalendar

series = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=5, max_value=60),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)

#: Small non-negative integers: long tie runs, like weekly counts.
tie_heavy = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=0, max_value=60),
    elements=st.integers(min_value=0, max_value=3).map(float),
)


class TestRankdata:
    def test_simple_ranks(self):
        assert rankdata(np.asarray([30.0, 10.0, 20.0])).tolist() == [3.0, 1.0, 2.0]

    def test_ties_get_average_rank(self):
        assert rankdata(np.asarray([1.0, 2.0, 2.0, 3.0])).tolist() == [
            1.0,
            2.5,
            2.5,
            4.0,
        ]

    @given(series)
    def test_matches_scipy(self, values):
        ours = rankdata(values)
        theirs = scipy.stats.rankdata(values)
        assert np.allclose(ours, theirs)

    @given(tie_heavy)
    def test_ties_match_scipy_exactly(self, values):
        ours = rankdata(values)
        assert ours.dtype == np.float64
        assert np.array_equal(ours, scipy.stats.rankdata(values))

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [4.0],
            [0.0] * 13,
            [2.0, 2.0, 2.0, 2.0],
            # A sparse IXP-like quarter: mostly empty weeks.
            [0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            [-0.0, 0.0, 1.0, -0.0],
        ],
    )
    def test_edge_cases_match_scipy_exactly(self, values):
        values = np.asarray(values, dtype=np.float64)
        assert np.array_equal(rankdata(values), scipy.stats.rankdata(values))


class TestPearson:
    def test_perfect_correlation(self):
        x = np.arange(10, dtype=float)
        result = pearson(x, 2 * x + 1)
        assert result.coefficient == pytest.approx(1.0)
        assert result.p_value == pytest.approx(0.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        x = np.arange(10, dtype=float)
        assert pearson(x, -x).coefficient == pytest.approx(-1.0)

    def test_constant_series_insignificant(self):
        x = np.ones(10)
        y = np.arange(10, dtype=float)
        result = pearson(x, y)
        assert result.coefficient == 0.0
        assert result.p_value == 1.0
        assert not result.significant

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            pearson(np.ones(1), np.ones(1))

    @given(series.filter(lambda v: np.ptp(v) > 1e-6))
    @settings(max_examples=50)
    def test_matches_scipy(self, x):
        rng = np.random.default_rng(0)
        y = x * 0.5 + rng.normal(size=len(x))
        if np.ptp(y) == 0:
            return
        ours = pearson(x, y)
        r, p = scipy.stats.pearsonr(x, y)
        assert ours.coefficient == pytest.approx(r, abs=1e-9)
        assert ours.p_value == pytest.approx(p, abs=1e-6)


class TestSpearman:
    def test_monotone_nonlinear_is_perfect(self):
        x = np.arange(1, 11, dtype=float)
        assert spearman(x, x**3).coefficient == pytest.approx(1.0)

    def test_outlier_insensitivity_vs_pearson(self):
        # The paper chose Spearman for this property.
        x = np.arange(20, dtype=float)
        y = x.copy()
        y[-1] = 1e6
        assert spearman(x, y).coefficient > pearson(x, y).coefficient - 0.01
        assert spearman(x, y).coefficient == pytest.approx(1.0)

    @given(series.filter(lambda v: np.ptp(v) > 1e-6))
    @settings(max_examples=50)
    def test_matches_scipy(self, x):
        rng = np.random.default_rng(1)
        y = np.roll(x, 3) + rng.normal(size=len(x))
        if np.ptp(y) == 0:
            return
        ours = spearman(x, y)
        rho, p = scipy.stats.spearmanr(x, y)
        assert ours.coefficient == pytest.approx(rho, abs=1e-9)
        assert ours.p_value == pytest.approx(p, abs=1e-6)


class TestCorrelationRecord:
    def test_significance_threshold(self):
        assert Correlation(0.5, 0.04, 50).significant
        assert not Correlation(0.5, 0.06, 50).significant


class TestOlsLine:
    def test_exact_fit(self):
        values = 3.0 + 0.5 * np.arange(20)
        slope, intercept = ols_line(values)
        assert slope == pytest.approx(0.5)
        assert intercept == pytest.approx(3.0)

    def test_start_offset_keeps_index_units(self):
        values = 3.0 + 0.5 * np.arange(20)
        slope, intercept = ols_line(values, start=10)
        assert slope == pytest.approx(0.5)
        # Fit is in global index coordinates.
        assert intercept == pytest.approx(3.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            ols_line(np.asarray([1.0]))


# -- per-pair reference -------------------------------------------------------


def loop_rankdata(values):
    """Average ranks, one tie group at a time."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


#: Relative tolerance of every p-value against :func:`reference_p`.
P_RTOL = 1e-11


def reference_p(r, n):
    """scipy's two-sided t-test p-value of ``r`` over ``n > 2`` points,
    with t conditioned as ``|r| sqrt((n - 2) / ((1 - |r|)(1 + |r|)))``."""
    s = np.abs(r)
    t_statistic = s * np.sqrt((n - 2) / ((1.0 - s) * (1.0 + s)))
    return 2.0 * scipy.special.stdtr(n - 2, -t_statistic)


def p_close(p, reference):
    """Within :data:`P_RTOL` of the reference; at most 1e-290 where the
    reference is below 1e-300."""
    p, reference = np.asarray(p), np.asarray(reference)
    return np.where(
        reference < 1e-300,
        p <= 1e-290,
        np.abs(p - reference) <= P_RTOL * reference,
    )


def reference_pair(x, y, method):
    """(r, p) of one pair with per-pair arithmetic and :func:`reference_p`."""
    if method == "spearman":
        x, y = loop_rankdata(x), loop_rankdata(y)
    dx = np.asarray(x, dtype=np.float64) - np.mean(x)
    dy = np.asarray(y, dtype=np.float64) - np.mean(y)
    n = len(dx)
    denominator = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denominator == 0.0:
        return 0.0, 1.0
    r = max(-1.0, min(1.0, float(dx @ dy) / denominator))
    if n < 3:
        return r, 1.0
    if abs(r) >= 1.0:
        return r, 0.0
    return r, float(reference_p(r, n))


#: Columns of one length: tie-heavy counts, sparse weeks or plain floats.
column_sets = st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.lists(
        hnp.arrays(
            dtype=np.float64,
            shape=n,
            elements=st.one_of(
                st.integers(min_value=0, max_value=3).map(float),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            ),
        ),
        min_size=2,
        max_size=6,
    )
)


class TestKernelAgainstPerPairReference:
    """The kernel keeps the per-pair arithmetic, so every coefficient bit
    must match; p-values agree with scipy within :data:`P_RTOL`."""

    @given(tie_heavy)
    def test_rankdata_equals_loop(self, values):
        assert rankdata(values).tobytes() == loop_rankdata(values).tobytes()

    @given(column_sets)
    @settings(max_examples=60)
    def test_coefficients_bit_identical_p_values_close(self, columns):
        series = {f"s{i}": column for i, column in enumerate(columns)}
        for method, pair in (("spearman", spearman), ("pearson", pearson)):
            matrix = correlation_matrix(series, method)
            for i in range(len(columns)):
                for j in range(i + 1, len(columns)):
                    r, p = reference_pair(columns[i], columns[j], method)
                    got = pair(columns[i], columns[j])
                    assert repr(got.coefficient) == repr(r)
                    assert repr(matrix.coefficients[i, j]) == repr(np.float64(r))
                    assert p_close(got.p_value, p)
                    assert p_close(matrix.p_values[i, j], p)

    def test_quarterly_bit_identical(self):
        calendar = StudyCalendar(dt.date(2019, 1, 1), dt.date(2020, 9, 12))
        quarters = list(calendar.quarter_weeks.values())
        rng = np.random.default_rng(11)
        series = {
            "counts": rng.integers(0, 5, calendar.n_weeks).astype(float),
            "noise": rng.normal(size=calendar.n_weeks),
            "sparse": np.where(rng.random(calendar.n_weeks) < 0.8, 0.0, 1.0),
            "trend": np.arange(calendar.n_weeks, dtype=float),
        }
        series["sparse"][quarters[1]] = 0.0
        result = quarterly_correlations(series, calendar)
        for (a, b), values in result.items():
            expected = [
                reference_pair(series[a][weeks], series[b][weeks], "spearman")[0]
                for weeks in quarters
                if len(weeks) >= 4
                and np.ptp(series[a][weeks]) != 0
                and np.ptp(series[b][weeks]) != 0
            ]
            assert repr(values) == repr(expected)


def first_row_p_values(r, n):
    """:func:`p_values` of every coefficient in ``r``, as the pairs of
    the first row of one matrix over ``n`` points."""
    k = len(r) + 1
    coefficients = np.eye(k)
    coefficients[0, 1:] = coefficients[1:, 0] = r
    defined = np.zeros((k, k), dtype=bool)
    defined[0] = defined[:, 0] = True
    return p_values(coefficients, defined, n)[0, 1:]


def test_p_values_grid_against_scipy():
    """Every p-value within :data:`P_RTOL` of scipy, symmetric in r, 1 at
    r = 0 and non-increasing in |r| across the seam of the two forms."""
    near_one = 1.0 - 10.0 ** -np.arange(1.0, 16.0)
    for n in [*range(3, 41), 67, 69, 71, 132, 234, 236, 500]:
        draws = np.random.default_rng(n).uniform(0.0, 1.0, 64)
        magnitudes = np.concatenate(([0.0, 1e-3], draws, near_one))
        p = first_row_p_values(np.concatenate((magnitudes, -magnitudes)), n)
        positive, negative = np.split(p, 2)
        assert positive[0] == 1.0, n
        assert np.array_equal(positive, negative), n
        assert p_close(positive, reference_p(magnitudes, n)).all(), n
        ordered = positive[np.argsort(magnitudes)]
        assert np.all(ordered[1:] <= ordered[:-1] * (1.0 + P_RTOL)), n
