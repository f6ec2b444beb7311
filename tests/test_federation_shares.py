"""Tests for federation joins, share series, and visibility analysis."""

import datetime as dt

import numpy as np
import pytest

from repro.core.federation import federate, subsample_baseline
from repro.core.overlap import membership, upset
from repro.core.shares import share_series
from repro.core.visibility import highly_visible, top_target_ases
from repro.util.calendar import StudyCalendar
from repro.util.rng import RngFactory
from tests.conftest import pack_targets

CALENDAR = StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 12, 31))


class TestSubsampleBaseline:
    def test_fraction_one_is_identity(self):
        baseline = pack_targets({(0, 1), (1, 2)})
        rng = RngFactory(0).stream("sub")
        assert np.array_equal(subsample_baseline(baseline, 1.0, rng), baseline)

    def test_fraction_reduces_size(self):
        baseline = pack_targets({(d, ip) for d in range(100) for ip in range(10)})
        rng = RngFactory(0).stream("sub2")
        sampled = subsample_baseline(baseline, 0.28, rng)
        assert 0.2 < len(sampled) / len(baseline) < 0.36
        assert np.isin(sampled, baseline).all()

    def test_deterministic(self):
        baseline = pack_targets({(d, 1) for d in range(200)})
        a = subsample_baseline(baseline, 0.5, RngFactory(3).stream("x"))
        b = subsample_baseline(baseline, 0.5, RngFactory(3).stream("x"))
        assert np.array_equal(a, b)

    def test_invalid_fraction_rejected(self):
        rng = RngFactory(0).stream("sub3")
        with pytest.raises(ValueError):
            subsample_baseline(pack_targets(set()), 0.0, rng)
        with pytest.raises(ValueError):
            subsample_baseline(pack_targets(set()), 1.5, rng)


class TestFederate:
    def setup_sets(self):
        academic = membership(
            {
                "HP1": pack_targets({(0, 1), (0, 2), (0, 3)}),
                "HP2": pack_targets({(0, 3), (0, 4)}),
            }
        )
        industry = pack_targets({(0, 3), (0, 4), (0, 99)})
        return academic, industry

    def test_forward_confirmation_shares(self):
        academic, industry = self.setup_sets()
        result = federate(academic, upset(academic), "Industry", industry)
        both = result.forward_row("HP1", "HP2")
        assert both.academic_count == 1  # (0,3)
        assert both.confirmed_count == 1
        assert both.share == 1.0
        only_hp1 = result.forward_row("HP1")
        assert only_hp1.academic_count == 2  # (0,1),(0,2)
        assert only_hp1.confirmed_count == 0

    def test_reverse_shares(self):
        academic, industry = self.setup_sets()
        result = federate(academic, upset(academic), "Industry", industry)
        assert result.reverse["HP1"] == pytest.approx(1 / 3)
        assert result.reverse["HP2"] == pytest.approx(2 / 3)
        assert result.reverse_union == pytest.approx(2 / 3)

    def test_missing_row_is_zero(self):
        academic, industry = self.setup_sets()
        result = federate(academic, upset(academic), "Industry", industry)
        ghost = result.forward_row("HP1", "GHOST")
        assert ghost.academic_count == 0
        assert ghost.share == 0.0

    def test_empty_baseline(self):
        academic, _ = self.setup_sets()
        result = federate(academic, upset(academic), "Industry", pack_targets(set()))
        assert result.reverse_union == 0.0
        assert all(row.confirmed_count == 0 for row in result.forward)


class TestShareSeries:
    def test_share_computation(self):
        dp = np.asarray([10.0] * CALENDAR.n_weeks)
        ra = np.asarray([30.0] * CALENDAR.n_weeks)
        shares = share_series("X", dp, ra, CALENDAR)
        assert shares.ra_share[0] == pytest.approx(0.75)
        assert shares.dp_share[0] == pytest.approx(0.25)

    def test_zero_weeks_get_half(self):
        dp = np.zeros(CALENDAR.n_weeks)
        ra = np.zeros(CALENDAR.n_weeks)
        shares = share_series("X", dp, ra, CALENDAR)
        assert shares.ra_share[0] == 0.5

    def test_crossing_detection(self):
        n = CALENDAR.n_weeks
        ra = np.concatenate([np.full(n // 2, 80.0), np.full(n - n // 2, 20.0)])
        dp = 100.0 - ra
        shares = share_series("X", dp, ra, CALENDAR)
        week = shares.last_crossing_week()
        assert week is not None
        # EWMA smoothing delays the crossing slightly past the step.
        assert n // 2 <= week <= n // 2 + 12
        assert shares.last_crossing_quarter() is not None

    def test_no_crossing_when_ra_never_dominant(self):
        dp = np.full(CALENDAR.n_weeks, 90.0)
        ra = np.full(CALENDAR.n_weeks, 10.0)
        shares = share_series("X", dp, ra, CALENDAR)
        assert shares.last_crossing_week() is None
        assert shares.last_crossing_quarter() is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            share_series("X", np.ones(5), np.ones(6), CALENDAR)


class TestHighlyVisible:
    def test_series_and_cdf(self):
        tuples = {(0, 1), (7, 1), (7, 2), (14, 3)}
        result = highly_visible(
            pack_targets(tuples), universe_size=100, calendar=CALENDAR
        )
        assert result.share_of_universe == pytest.approx(0.04)
        assert result.new_per_week[0] == 1
        assert result.new_per_week[1] == 1  # IP 2 new in week 1
        assert result.recurring_per_week[1] == 1  # IP 1 recurs
        assert result.total_per_week.sum() == 4
        assert result.cdf[-1] == pytest.approx(1.0)
        assert set(result.distinct_ips.tolist()) == {1, 2, 3}

    def test_empty_universe(self):
        result = highly_visible(pack_targets(set()), universe_size=0, calendar=CALENDAR)
        assert result.share_of_universe == 0.0


class TestTopTargetAses:
    def test_attribution(self, plan):
        rng = RngFactory(0).stream("attr")
        targets = plan.sample_targets(rng, 3000)
        tuples = {(int(i) % 100, int(t)) for i, t in enumerate(targets)}
        rows = top_target_ases(pack_targets(tuples), plan, top_n=5)
        assert len(rows) == 5
        assert rows[0].rank == 1
        # OVH has by far the largest weight.
        assert rows[0].name == "OVH"
        assert rows[0].share > rows[1].share
        total_share = sum(row.share for row in rows)
        assert total_share <= 1.0

    def test_unrouted_targets_dropped(self, plan):
        from repro.net.addr import parse_ip

        tuples = {(0, parse_ip("44.0.0.1"))}  # telescope space: no route
        assert top_target_ases(pack_targets(tuples), plan) == []
