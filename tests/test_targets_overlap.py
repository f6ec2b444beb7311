"""Tests for target identity, UpSet overlap analysis, and visibility."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.overlap import membership, pairwise_overlap_shares, upset
from repro.core.targets import (
    cumulative_share,
    split_new_recurring,
    weekly_target_counts,
)
from repro.util.calendar import StudyCalendar
from tests.conftest import pack_targets

CALENDAR = StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 6, 30))


def key_sets(named_sets: dict) -> dict[str, np.ndarray]:
    """Named sets of int keys as sorted int64 arrays."""
    return {
        name: np.array(sorted(values), dtype=np.int64)
        for name, values in named_sets.items()
    }


class TestWeeklyTupleCounts:
    def test_counts_per_week(self):
        tuples = {(0, 1), (1, 2), (6, 3), (7, 4), (8, 4)}
        counts = weekly_target_counts(pack_targets(tuples), CALENDAR)
        assert counts[0] == 3  # days 0, 1, 6
        assert counts[1] == 2  # days 7, 8
        assert counts[2:].sum() == 0

    def test_out_of_window_days_dropped(self):
        tuples = {(CALENDAR.n_days + 100, 1)}
        counts = weekly_target_counts(pack_targets(tuples), CALENDAR)
        assert counts.sum() == 0


class TestSplitNewRecurring:
    def test_first_sighting_is_new(self):
        tuples = {(0, 10), (3, 10), (14, 10), (14, 20)}
        new, recurring = split_new_recurring(pack_targets(tuples), CALENDAR)
        assert new[0] == 1  # IP 10 first seen day 0
        assert recurring[0] == 1  # IP 10 again day 3
        assert recurring[2] == 1  # IP 10 day 14
        assert new[2] == 1  # IP 20 first seen day 14

    def test_totals_match_tuple_count(self):
        tuples = {(d, ip) for d in range(0, 20) for ip in (1, 2, 3)}
        new, recurring = split_new_recurring(pack_targets(tuples), CALENDAR)
        assert new.sum() + recurring.sum() == len(tuples)
        assert new.sum() == 3


class TestCumulativeShare:
    def test_reaches_one(self):
        values = np.asarray([1.0, 2.0, 3.0])
        cdf = cumulative_share(values)
        assert cdf[-1] == pytest.approx(1.0)
        assert cdf[0] == pytest.approx(1.0 / 6.0)

    def test_all_zero(self):
        assert cumulative_share(np.zeros(5)).tolist() == [0.0] * 5

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_monotone(self, values):
        cdf = cumulative_share(np.asarray(values))
        assert all(a <= b + 1e-12 for a, b in zip(cdf, cdf[1:]))


class TestUpset:
    def sets(self):
        return {
            "A": {1, 2, 3, 4},
            "B": {3, 4, 5},
            "C": {4, 6},
        }

    def test_rows_partition_universe(self):
        result = upset(membership(key_sets(self.sets())))
        assert result.universe_size == 6
        assert sum(row.count for row in result.rows) == 6

    def test_exclusive_intersections(self):
        result = upset(membership(key_sets(self.sets())))
        assert result.exclusive("A").count == 2  # {1, 2}
        assert result.exclusive("A", "B").count == 1  # {3}
        assert result.exclusive("A", "B", "C").count == 1  # {4}
        assert result.exclusive("C").count == 1  # {6}
        assert result.exclusive("B", "C").count == 0

    def test_seen_by_all(self):
        result = upset(membership(key_sets(self.sets())))
        row = result.seen_by_all()
        assert row.count == 1
        assert row.share == pytest.approx(1 / 6)

    def test_set_shares_not_exclusive(self):
        result = upset(membership(key_sets(self.sets())))
        assert result.set_sizes == {"A": 4, "B": 3, "C": 2}
        assert result.set_shares["A"] == pytest.approx(4 / 6)
        # Shares sum to more than 100% (the paper notes this).
        assert sum(result.set_shares.values()) > 1.0

    def test_requires_two_sets(self):
        with pytest.raises(ValueError):
            upset(membership(key_sets({"A": {1}})))

    def test_empty_universe(self):
        result = upset(membership(key_sets({"A": set(), "B": set()})))
        assert result.universe_size == 0
        assert result.rows == []

    @given(
        st.dictionaries(
            st.sampled_from(["A", "B", "C", "D"]),
            st.sets(st.integers(min_value=0, max_value=30)),
            min_size=2,
            max_size=4,
        )
    )
    def test_partition_property(self, named_sets):
        result = upset(membership(key_sets(named_sets)))
        assert sum(row.count for row in result.rows) == result.universe_size
        for row in result.rows:
            assert row.count > 0


class TestPairwiseOverlap:
    def test_directed_shares(self):
        shares = pairwise_overlap_shares(
            membership(key_sets({"A": {1, 2, 3, 4}, "B": {3, 4}}))
        )
        assert shares[("A", "B")] == pytest.approx(0.5)
        assert shares[("B", "A")] == pytest.approx(1.0)

    def test_empty_set_share_zero(self):
        shares = pairwise_overlap_shares(membership(key_sets({"A": set(), "B": {1}})))
        assert shares[("A", "B")] == 0.0

