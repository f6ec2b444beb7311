"""Tier-1 unit tests for the sibling-paper scenario layer.

Fast, simulation-free: config validation, the check registries' shape
(anchors, counts, no collisions with the baseline ids), the fingerprint
omit-if-none invariance that keeps the baseline goldens pinned, preset
expansion, and the closed-form scenario curves (takedown multiplier,
emergence weight schedule).
"""

from __future__ import annotations

import dataclasses
import datetime as dt

import pytest

from repro.attacks.booters import BooterMarket, RebrandTakedown
from repro.core.cache import config_fingerprint
from repro.core.conformance import all_checks
from repro.core.study import StudyConfig
from repro.scenarios import (
    SCENARIO_FAMILIES,
    BooterTakedownScenario,
    CloudObservatoryScenario,
    EmergenceScenario,
    HoneypotPoolScenario,
    ScenarioConfig,
    scenario_checks_for,
)
from repro.scenarios.checks import SCENARIO_REGISTRY
from repro.sweep.presets import preset
from repro.sweep.spec import expand
from repro.util.calendar import StudyCalendar


class TestScenarioConfig:
    def test_requires_at_least_one_family(self):
        with pytest.raises(ValueError):
            ScenarioConfig()

    def test_emergence_rejects_non_reflection_vectors(self):
        with pytest.raises(ValueError):
            EmergenceScenario(vector="SYN flood")
        with pytest.raises(ValueError):
            EmergenceScenario(vector="no-such-vector")

    def test_emergence_weight_schedule(self):
        scenario = EmergenceScenario(
            rise_week=10, peak_week=20, decay_week=30,
            peak_weight=0.60, floor_weight=0.06,
        )
        assert scenario.weight_for_week(0) == 0.0
        assert scenario.weight_for_week(9) == 0.0
        assert scenario.weight_for_week(15) == pytest.approx(0.30)
        assert scenario.weight_for_week(20) == pytest.approx(0.60)
        assert scenario.weight_for_week(25) == pytest.approx(0.33)
        assert scenario.weight_for_week(30) == pytest.approx(0.06)
        assert scenario.weight_for_week(100) == pytest.approx(0.06)

    def test_honeypot_pool_validates_placement_and_scale(self):
        with pytest.raises(ValueError):
            HoneypotPoolScenario(placement="clustered")
        with pytest.raises(ValueError):
            HoneypotPoolScenario(scale=0.0)

    def test_booter_market_requires_takedown_inside_calendar(self):
        scenario = BooterTakedownScenario(takedown_week=16)
        short = StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 3, 1))
        with pytest.raises(ValueError):
            scenario.market(short)


class TestRebrandTakedown:
    def test_multiplier_before_and_at_takedown(self):
        takedown = RebrandTakedown(
            day=100, capacity_removed=0.5, recovery_days=35.0,
            rebrand_share=0.4, rebrand_delay_days=14.0, rebrand_ramp_days=14.0,
        )
        assert takedown.multiplier(99) == 1.0
        assert takedown.multiplier(100) == pytest.approx(0.5)

    def test_rebrand_step_and_full_recovery(self):
        takedown = RebrandTakedown(
            day=0, capacity_removed=0.6, recovery_days=30.0,
            rebrand_share=0.5, rebrand_delay_days=14.0, rebrand_ramp_days=7.0,
        )
        before_ramp = takedown.multiplier(13)
        after_ramp = takedown.multiplier(22)
        # The ramp hands back at least the rebranded share of the seizure.
        assert after_ramp - before_ramp >= 0.6 * 0.5 * 0.9
        assert takedown.multiplier(10_000) == pytest.approx(1.0, abs=1e-6)

    def test_booter_market_accepts_rebrand_takedowns(self):
        market = BooterMarket((
            RebrandTakedown(
                day=10, capacity_removed=0.5, recovery_days=20.0,
                rebrand_share=0.5, rebrand_delay_days=7.0, rebrand_ramp_days=7.0,
            ),
        ))
        assert market.capacity(0) == 1.0
        assert market.capacity(10) < 1.0


class TestCheckRegistry:
    def test_every_family_ships_at_least_three_anchored_checks(self):
        for family in SCENARIO_FAMILIES:
            checks = SCENARIO_REGISTRY[family].values()
            assert len(checks) >= 3, family
            for check in checks:
                assert check.anchor, check.check_id
                assert check.claim, check.check_id

    def test_scenario_ids_do_not_collide_with_the_baseline(self):
        baseline = {check.check_id for check in all_checks()}
        scenario_ids = {
            check.check_id
            for registry in SCENARIO_REGISTRY.values()
            for check in registry.values()
        }
        assert not baseline & scenario_ids
        assert len(scenario_ids) == sum(
            len(registry) for registry in SCENARIO_REGISTRY.values()
        )

    def test_checks_for_selects_only_active_families(self):
        assert scenario_checks_for(None) == ()
        cloud_only = scenario_checks_for(
            ScenarioConfig(cloud=CloudObservatoryScenario())
        )
        assert {check.check_id[:4] for check in cloud_only} == {"CLD."}
        both = scenario_checks_for(
            ScenarioConfig(
                booter=BooterTakedownScenario(),
                honeypot_pool=HoneypotPoolScenario(),
            )
        )
        assert len(both) == len(SCENARIO_REGISTRY["booter"]) + len(
            SCENARIO_REGISTRY["honeypot_pool"]
        )


class TestFingerprintInvariance:
    def test_scenario_none_is_fingerprint_invisible(self):
        """The pinned baseline goldens depend on this: an unset scenario
        field must not perturb any existing config fingerprint."""
        config = StudyConfig(seed=0)
        assert config.scenario is None
        assert config_fingerprint(config) == (
            "415d357bcace1e7c0eb8d4d2d2c182f5184f1ffc30f010685771deee2ede960d"
        )

    def test_setting_a_scenario_changes_the_fingerprint(self):
        base = StudyConfig(seed=0)
        with_scenario = dataclasses.replace(
            base, scenario=ScenarioConfig(cloud=CloudObservatoryScenario())
        )
        assert config_fingerprint(base) != config_fingerprint(with_scenario)

    def test_scenario_knobs_change_the_fingerprint(self):
        one = StudyConfig(
            seed=0,
            scenario=ScenarioConfig(booter=BooterTakedownScenario()),
        )
        other = dataclasses.replace(
            one,
            scenario=ScenarioConfig(
                booter=BooterTakedownScenario(capacity_removed=0.6)
            ),
        )
        assert config_fingerprint(one) != config_fingerprint(other)


class TestScenarioPresets:
    @pytest.mark.parametrize(
        "name, n_cells",
        [
            ("booter-takedown", 4),
            ("cloud-observatory", 2),
            ("amplification-emergence", 2),
            ("honeypot-convergence", 6),
        ],
    )
    def test_presets_expand_with_scenario_bases(self, name, n_cells):
        spec = preset(name)
        assert spec.anchor
        cells = expand(spec)
        assert len(cells) == n_cells
        fingerprints = {cell.config_fingerprint for cell in cells}
        assert len(fingerprints) == n_cells
        for cell in cells:
            assert cell.config.scenario is not None

    def test_axes_override_scenario_fields(self):
        cells = expand(preset("honeypot-convergence"))
        scales = {cell.config.scenario.honeypot_pool.scale for cell in cells}
        placements = {
            cell.config.scenario.honeypot_pool.placement for cell in cells
        }
        assert scales == {0.25, 1.0, 4.0}
        assert placements == {"paper", "uniform"}
