"""Tests for SAV, booter market, landscape, and campaign models."""

import datetime as dt

import pytest

from repro.attacks.booters import BooterMarket, Takedown
from repro.attacks.campaigns import CampaignConfig, CampaignModel
from repro.attacks.events import OBSERVATORY_KEYS, AttackClass
from repro.attacks.landscape import (
    DP_SHAPE,
    RA_SHAPE,
    LandscapeModel,
    PiecewiseCurve,
    Seasonality,
)
from repro.attacks.spoofing import SavModel
from repro.util.calendar import STUDY_CALENDAR, StudyCalendar
from repro.util.rng import RngFactory


class TestSavModel:
    def test_flat_before_ramp(self):
        sav = SavModel()
        assert sav.spoofable_share(0) == sav.share_before
        assert sav.spoofable_share(sav.ramp_start_week) == sav.share_before

    def test_flat_after_ramp(self):
        sav = SavModel()
        assert sav.spoofable_share(sav.ramp_end_week) == sav.share_after
        assert sav.spoofable_share(10_000) == sav.share_after

    def test_monotone_decline_during_ramp(self):
        sav = SavModel()
        weeks = range(sav.ramp_start_week, sav.ramp_end_week + 1)
        values = [sav.spoofable_share(week) for week in weeks]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_suppression_normalised_to_one(self):
        sav = SavModel()
        assert sav.suppression(0) == 1.0
        assert sav.suppression(sav.ramp_end_week) == pytest.approx(
            sav.share_after / sav.share_before
        )

    def test_netscout_17_percent_drop_is_reachable(self):
        # The paper quotes a 17% RA decrease in 2022 vs 2021; the default
        # model's endpoint suppression is in that ballpark (>= 15% drop).
        sav = SavModel()
        assert sav.suppression(250) <= 0.85

    def test_validation(self):
        with pytest.raises(ValueError):
            SavModel(share_before=0.2, share_after=0.3)
        with pytest.raises(ValueError):
            SavModel(ramp_start_week=10, ramp_end_week=10)


class TestBooterMarket:
    def test_capacity_one_before_takedown(self):
        market = BooterMarket((Takedown(day=100, capacity_removed=0.2, recovery_days=30),))
        assert market.capacity(0) == 1.0
        assert market.capacity(99) == 1.0

    def test_dip_at_takedown(self):
        market = BooterMarket((Takedown(day=100, capacity_removed=0.2, recovery_days=30),))
        assert market.capacity(100) == pytest.approx(0.8)

    def test_geometric_recovery(self):
        market = BooterMarket((Takedown(day=0, capacity_removed=0.2, recovery_days=30),))
        values = [market.capacity(day) for day in range(0, 200, 10)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert market.capacity(300) > 0.99

    def test_default_has_two_takedowns_in_paper_window(self):
        market = BooterMarket.default(STUDY_CALENDAR)
        assert len(market.takedowns) == 2

    def test_default_skips_takedowns_outside_short_window(self):
        short = StudyCalendar(dt.date(2019, 1, 1), dt.date(2020, 1, 1))
        market = BooterMarket.default(short)
        assert len(market.takedowns) == 0

    def test_without_takedowns(self):
        market = BooterMarket.without_takedowns()
        assert market.capacity(500) == 1.0
        assert market.takedown_days() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            Takedown(day=0, capacity_removed=1.0, recovery_days=10)
        with pytest.raises(ValueError):
            Takedown(day=0, capacity_removed=0.5, recovery_days=0)


class TestPiecewiseCurve:
    def test_interpolation(self):
        curve = PiecewiseCurve([(0, 1.0), (10, 2.0)])
        assert curve.value(0) == 1.0
        assert curve.value(5) == pytest.approx(1.5)
        assert curve.value(10) == 2.0

    def test_clamping(self):
        curve = PiecewiseCurve([(5, 1.0), (10, 2.0)])
        assert curve.value(0) == 1.0
        assert curve.value(100) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseCurve([(0, 1.0)])
        with pytest.raises(ValueError):
            PiecewiseCurve([(5, 1.0), (5, 2.0)])
        with pytest.raises(ValueError):
            PiecewiseCurve([(5, 1.0), (3, 2.0)])

    def test_paper_shapes_have_expected_features(self):
        # DP grows over the window; RA peaks in 2020-2021 and declines.
        assert DP_SHAPE.value(234) > DP_SHAPE.value(0) * 1.8
        assert RA_SHAPE.value(91) > 1.5  # 2020Q4 high
        assert RA_SHAPE.value(206) < 0.7  # low at the turn of 2023


class TestSeasonality:
    def test_peaks_in_first_half(self):
        seasonal = Seasonality()
        first_half = max(seasonal.factor(week) for week in range(0, 26))
        second_half = min(seasonal.factor(week) for week in range(26, 52))
        assert first_half > 1.05
        assert second_half < 0.95

    def test_annual_period(self):
        seasonal = Seasonality()
        assert seasonal.factor(10) == pytest.approx(
            seasonal.factor(10 + 52.1775), abs=1e-9
        )


class TestLandscapeModel:
    def make(self, **kw):
        return LandscapeModel(
            STUDY_CALENDAR, dp_per_day=90.0, ra_per_day=70.0, **kw
        )

    def test_positive_rates_required(self):
        with pytest.raises(ValueError):
            LandscapeModel(STUDY_CALENDAR, dp_per_day=0.0, ra_per_day=70.0)

    def test_expected_counts_positive(self):
        landscape = self.make()
        for day in (0, 400, 1000, 1600):
            assert landscape.expected_count(AttackClass.DIRECT_PATH, day) > 0
            assert (
                landscape.expected_count(AttackClass.REFLECTION_AMPLIFICATION, day) > 0
            )

    def test_sav_suppresses_late_ra(self):
        with_sav = self.make()
        without = self.make(sav=SavModel(share_before=0.3, share_after=0.29999))
        late_day = 225 * 7
        assert with_sav.expected_count(
            AttackClass.REFLECTION_AMPLIFICATION, late_day
        ) < without.expected_count(AttackClass.REFLECTION_AMPLIFICATION, late_day)

    def test_takedown_dents_supply(self):
        landscape = self.make()
        takedown_day = landscape.booters.takedown_days()[0]
        before = landscape.expected_count(AttackClass.DIRECT_PATH, takedown_day - 7)
        at = landscape.expected_count(AttackClass.DIRECT_PATH, takedown_day)
        # Not exact (shape/seasonality move too), but the dent dominates.
        assert at < before

    def test_spoofed_share_declines_with_sav(self):
        landscape = self.make()
        assert landscape.spoofed_dp_share(0) > landscape.spoofed_dp_share(1600)
        assert 0 < landscape.spoofed_dp_share(1600) < 1


class TestCampaignModel:
    def make(self, seed=0, **kw):
        config = CampaignConfig(**kw) if kw else None
        return CampaignModel(
            STUDY_CALENDAR, RngFactory(seed), config=config, candidate_asns=[64500]
        )

    def test_deterministic(self):
        a = self.make(seed=5)
        b = self.make(seed=5)
        assert len(a) == len(b)
        assert [c.start_day for c in a.campaigns] == [c.start_day for c in b.campaigns]

    def test_active_index_consistent(self):
        model = self.make()
        for day in (0, 500, 1500):
            running = [
                campaign
                for campaign in model.campaigns
                if 0 <= day - campaign.start_day < campaign.duration_days
            ]
            assert model.active(day) == running

    def test_bias_covers_all_observatories(self):
        model = self.make()
        for campaign in model.campaigns[:20]:
            assert set(campaign.bias) == set(OBSERVATORY_KEYS)
            assert all(value > 0 for value in campaign.bias.values())

    def test_scripted_ssdp_wave_present(self):
        model = self.make()
        carpet_waves = [c for c in model.campaigns if c.carpet]
        assert len(carpet_waves) == 1
        wave = carpet_waves[0]
        assert wave.attack_class is AttackClass.REFLECTION_AMPLIFICATION
        date = STUDY_CALENDAR.date_of_day(wave.start_day)
        assert date.year == 2022 and date.month == 6
        # Honeypots see the wave far better than industry.
        assert wave.bias["hopscotch"] > 3 * wave.bias["netscout"]

    def test_scripted_wave_skipped_for_short_window(self):
        short = StudyCalendar(dt.date(2019, 1, 1), dt.date(2020, 1, 1))
        model = CampaignModel(short, RngFactory(0), candidate_asns=[64500])
        assert not [c for c in model.campaigns if c.carpet]

    def test_spawn_rate_scales_campaign_count(self):
        few = self.make(spawn_rate_per_week=0.1)
        many = self.make(spawn_rate_per_week=2.0)
        assert len(many) > len(few)
