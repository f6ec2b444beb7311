"""Named sweep presets for the sibling-paper scenario families.

Each preset is a :class:`~repro.sweep.spec.ScenarioSpec` whose base
config carries a :class:`~repro.scenarios.config.ScenarioConfig` and
whose axes sweep that scenario's own knobs (dotted ``scenario.*`` field
paths).  ``ddoscovery sweep run <name>`` runs the ensemble; every cell
evaluates the family's conformance suite automatically because
:func:`repro.core.conformance.default_checks` appends
:func:`repro.scenarios.checks.scenario_checks_for` whenever a study
config has a scenario attached.

Calendars are deliberately small (24-40 weeks at reduced rates): each
family's qualitative finding — dip-then-recovery, truncation bias,
rise/fall ordering, pool convergence — shows up well inside a year, and
keeping the cells cheap lets the conformance tier run all four presets.
"""

from __future__ import annotations

from typing import Callable

from repro.net.plan import PlanConfig
from repro.scenarios.config import (
    BooterTakedownScenario,
    CloudObservatoryScenario,
    EmergenceScenario,
    HoneypotPoolScenario,
    ScenarioConfig,
)
from repro.sweep.spec import Axis, AxisPoint, ScenarioSpec, axis
from repro.util.calendar import calendar_for_weeks


def small_base(weeks: int, scenario: ScenarioConfig | None = None):
    """The smoke-scale base config of the scenario and what-if presets:
    ``weeks`` from 2019-01-01 at reduced rates on a 60-tail-AS plan."""
    from repro.core.study import StudyConfig

    return StudyConfig(
        seed=0,
        calendar=calendar_for_weeks(weeks),
        dp_per_day=20.0,
        ra_per_day=15.0,
        plan=PlanConfig(seed=0, tail_as_count=60),
        scenario=scenario,
    )


def _booter_takedown() -> ScenarioSpec:
    return ScenarioSpec(
        name="booter-takedown",
        anchor="Hide&Seek §4-5",
        description=(
            "Booter-takedown campaign: supply dip, weeks-scale recovery "
            "and the rebranding capacity step, over seizure-depth x "
            "rebrand-share."
        ),
        base=small_base(
            40,
            ScenarioConfig(booter=BooterTakedownScenario(takedown_week=16)),
        ),
        axes=(
            axis("removed", "scenario.booter.capacity_removed", (0.45, 0.6)),
            axis("rebrand", "scenario.booter.rebrand_share", (0.35, 0.65)),
        ),
    )


def _cloud_observatory() -> ScenarioSpec:
    return ScenarioSpec(
        name="cloud-observatory",
        anchor="Cloud1Y §3-5",
        description=(
            "Cloud provider as an eleventh vantage point: detection-window "
            "floor and auto-mitigation truncation bias, over the "
            "mitigation threshold."
        ),
        base=small_base(
            24, ScenarioConfig(cloud=CloudObservatoryScenario())
        ),
        axes=(
            axis(
                "threshold",
                "scenario.cloud.auto_mitigation_threshold_bps",
                (3e8, 6e8),
            ),
        ),
    )


def _amplification_emergence() -> ScenarioSpec:
    return ScenarioSpec(
        name="amplification-emergence",
        anchor="NeverDies §4-5",
        description=(
            "Emerging amplification vector rises, peaks and decays to a "
            "persistent floor in the IXP-side RA mix, per vector."
        ),
        base=small_base(
            40, ScenarioConfig(emergence=EmergenceScenario())
        ),
        axes=(axis("vector", "scenario.emergence.vector", ("TP240", "SLP")),),
    )


def _honeypot_convergence() -> ScenarioSpec:
    return ScenarioSpec(
        name="honeypot-convergence",
        anchor="AmpPot §5-6",
        description=(
            "Honeypot pool-size/placement ablation: coverage ordering, "
            "ground-truth convergence beyond the pool threshold, "
            "placement-driven protocol affinity."
        ),
        base=small_base(
            28, ScenarioConfig(honeypot_pool=HoneypotPoolScenario())
        ),
        axes=(
            axis("scale", "scenario.honeypot_pool.scale", (0.25, 1.0, 4.0)),
            Axis(
                name="placement",
                points=(
                    AxisPoint.of(
                        "paper", {"scenario.honeypot_pool.placement": "paper"}
                    ),
                    AxisPoint.of(
                        "uniform",
                        {"scenario.honeypot_pool.placement": "uniform"},
                    ),
                ),
            ),
        ),
    )


SCENARIO_PRESETS: dict[str, Callable[[], ScenarioSpec]] = {
    "booter-takedown": _booter_takedown,
    "cloud-observatory": _cloud_observatory,
    "amplification-emergence": _amplification_emergence,
    "honeypot-convergence": _honeypot_convergence,
}


def scenario_presets() -> dict[str, Callable[[], ScenarioSpec]]:
    """Factory map of the four scenario-family presets."""
    return dict(SCENARIO_PRESETS)
