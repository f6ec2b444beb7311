"""Tests for the ground-truth attack generator."""

import datetime as dt

import numpy as np
import pytest

from repro.attacks.campaigns import CampaignConfig, CampaignModel
from repro.attacks.events import EVENT_COLUMNS, OBSERVATORY_KEYS
from repro.attacks.generator import (
    HP_BASE_SELECTION,
    GeneratorConfig,
    GroundTruthGenerator,
)
from repro.attacks.landscape import LandscapeModel
from repro.attacks.vectors import VECTORS, VectorKind
from repro.net.plan import PlanConfig, build_internet_plan
from repro.util.calendar import StudyCalendar
from repro.util.rng import RngFactory

CALENDAR = StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 6, 30))


def make_generator(seed=0, config=None, campaign_config=None, day_range=None):
    plan = build_internet_plan(PlanConfig(seed=seed, tail_as_count=50))
    factory = RngFactory(seed)
    landscape = LandscapeModel(CALENDAR, dp_per_day=40.0, ra_per_day=30.0)
    campaigns = CampaignModel(
        CALENDAR,
        factory,
        config=campaign_config,
        candidate_asns=[info.asn for info in plan.ases if info.target_weight > 0],
    )
    return GroundTruthGenerator(
        plan,
        CALENDAR,
        landscape,
        campaigns,
        config=config,
        rng_factory=factory,
        day_range=day_range,
    )


@pytest.fixture(scope="module")
def shard():
    return make_generator().shard_batch()


def same_day_collisions(shard):
    """Distinct (day, target) pairs attacked by both classes."""
    days, targets = shard.days.tolist(), shard.target.tolist()
    dp = shard.is_direct_path.tolist()
    dp_pairs = {pair for pair, is_dp in zip(zip(days, targets), dp) if is_dp}
    ra_pairs = {pair for pair, is_dp in zip(zip(days, targets), dp) if not is_dp}
    return len(dp_pairs & ra_pairs)


class TestBatchStructure:
    def test_one_batch_per_day(self, shard):
        # Every day of the window contributes events, in day order.
        assert (np.diff(shard.days) >= 0).all()
        assert np.array_equal(np.unique(shard.days), np.arange(CALENDAR.n_days))

    def test_days_non_decreasing_within_day_range(self):
        generator = make_generator(day_range=(30, 60))
        days = generator.shard_batch().days
        assert days.dtype == np.int32
        assert (np.diff(days) >= 0).all()
        assert days.min() >= 30 and days.max() < 60

    def test_starts_fall_within_day(self, shard):
        assert np.array_equal(shard.start // 86400, shard.days)

    def test_durations_floored_at_minute(self, shard):
        assert (shard.duration >= 60.0).all()

    def test_vector_ids_match_class(self, shard):
        direct = np.asarray([vector.kind is VectorKind.DIRECT for vector in VECTORS])
        assert np.array_equal(direct[shard.vector_id], shard.is_direct_path)

    def test_targets_have_origin_asns(self, shard):
        assert (shard.origin_asn > 0).all()

    def test_bias_arrays_complete(self, shard):
        assert set(shard.bias) == set(OBSERVATORY_KEYS)
        assert all(len(column) == len(shard) for column in shard.bias.values())

    def test_day_range_is_a_prefix_of_the_full_window(self, shard):
        # The recurrence pool starts empty at day 0 either way, so the
        # first ten days come out identical.
        prefix = make_generator(day_range=(0, 10)).shard_batch()
        head = shard.days < 10
        assert len(prefix) == int(head.sum())
        for name, _ in EVENT_COLUMNS:
            assert np.array_equal(getattr(prefix, name), getattr(shard, name)[head])


class TestSelectionMechanics:
    def test_hp_selection_only_for_reflection(self, shard):
        assert (shard.hp_selected[shard.is_direct_path] == 0).all()

    def test_hp_selection_rates_roughly_match_base(self, shard):
        ra = shard.is_reflection
        total = int(ra.sum())
        for platform in ("hopscotch", "amppot"):
            rate = int(shard.hp_selected_mask(platform)[ra].sum()) / total
            # min(1, base*breadth) with E[breadth]=1 lands below base.
            assert 0.3 * HP_BASE_SELECTION[platform] < rate < HP_BASE_SELECTION[platform]

    def test_newkid_selection_is_rare(self, shard):
        newkid = int(shard.hp_selected_mask("newkid").sum())
        hopscotch = int(shard.hp_selected_mask("hopscotch").sum())
        assert newkid < hopscotch / 5

    def test_memcached_never_selects_amppot(self, shard):
        # AmpPot's affinity for Memcached is zero (it does not emulate it).
        from repro.attacks.vectors import vector_id

        memcached = shard.vector_id == vector_id("Memcached")
        assert ((shard.hp_selected[memcached] & 0b10) == 0).all()

    def test_spoofed_applies_to_direct_path(self, shard):
        dp = shard.is_direct_path
        # RA requests are always spoofed.
        assert shard.spoofed[shard.is_reflection].all()
        share = int(shard.spoofed[dp].sum()) / int(dp.sum())
        assert 0.45 < share < 0.75  # around the configured 0.62


class TestCrossTypePairing:
    def test_paired_targets_attacked_by_both_classes(self, shard):
        # Some targets must appear under both attack classes on one day.
        assert same_day_collisions(shard) > 0

    def test_pairing_probability_drives_collisions(self):
        def collisions(config):
            return same_day_collisions(make_generator(config=config).shard_batch())

        # Recurrence off isolates pairing from victim-pool collisions.
        off = collisions(
            GeneratorConfig(cross_type_probability=0.0, recurrence_probability=0.0)
        )
        on = collisions(
            GeneratorConfig(cross_type_probability=0.05, recurrence_probability=0.0)
        )
        # Campaign target concentration can still produce a couple of
        # chance collisions; pairing must dominate by a wide margin.
        assert off <= 5
        assert on > 10 * max(off, 1)


def tuples_per_ip(shard):
    tuples = set(zip(shard.days.tolist(), shard.target.tolist()))
    return len(tuples) / len(set(shard.target.tolist()))


class TestRecurrence:
    def test_targets_recur_across_days(self, shard):
        assert tuples_per_ip(shard) > 1.2

    def test_no_recurrence_without_pool(self):
        config = GeneratorConfig(recurrence_probability=0.0)
        assert tuples_per_ip(make_generator(config=config).shard_batch()) < 1.1


class TestDeterminism:
    def test_same_seed_same_output(self):
        a = make_generator(seed=3).shard_batch()
        b = make_generator(seed=3).shard_batch()
        assert np.array_equal(a.days, b.days)
        assert np.array_equal(a.target, b.target)
        assert np.array_equal(a.pps, b.pps)

    def test_different_seed_different_output(self):
        a = make_generator(seed=3).shard_batch()
        b = make_generator(seed=4).shard_batch()
        assert len(a) != len(b) or not np.array_equal(a.target, b.target)


class TestCampaignEffects:
    def test_campaigns_add_events(self):
        quiet = make_generator(campaign_config=CampaignConfig(spawn_rate_per_week=0.0))
        busy = make_generator(campaign_config=CampaignConfig(spawn_rate_per_week=3.0))
        assert len(busy.shard_batch()) > len(quiet.shard_batch()) * 1.2

    def test_telescope_avoidance_zeroes_bias(self):
        config = GeneratorConfig(telescope_avoidance_probability=1.0)
        shard = make_generator(config=config).shard_batch()
        assert len(shard)
        assert (shard.bias["ucsd"] == 0).all()
        assert (shard.bias["orion"] == 0).all()
        assert (shard.bias["netscout"] > 0).all()
