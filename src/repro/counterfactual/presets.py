"""Named counterfactual presets: the what-ifs the paper invites.

Each preset binds an :class:`~repro.counterfactual.spec.InterventionSpec`
to a base config and seed ensemble, ready for
``ddoscovery whatif run --preset <name>``.  The interventions mirror the
levers the source paper (and its sibling assessments) debate:

* ``sav-adoption`` — source-address validation deployed faster and
  deeper than the observed MANRS trajectory, shrinking the spoofable
  share that feeds reflection-amplification (paper §2.3; Netscout's
  −17% RA year-over-year claim).
* ``takedown-earlier`` — the big booter seizure lands two months
  earlier and removes more capacity (Hide&Seek's FBI takedown
  timeline).
* ``blackholing-aggressive`` — IXP members blackhole at a quarter of
  the paper's activation thresholds and accept more candidate routes
  (the IXP vantage of Table 2).
* ``severity-floor`` — Netscout's alert severity floor tripled, the
  "how much of the iceberg is below the reporting line" question of §5.

Calendars are deliberately small — the sav-adoption preset runs on the
pinned seed0-small golden window so its baseline leg is a cache hit of
the golden study; the others use the scenario-preset scale (32-40 weeks
at reduced rates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.counterfactual.engine import WhatifPairing
from repro.counterfactual.spec import (
    InterventionSpec,
    scale_op,
    set_op,
    shift_op,
)
from repro.scenarios.presets import small_base

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.study import StudyConfig


@dataclass(frozen=True)
class WhatifPreset:
    """One registry entry: the intervention plus its canonical base."""

    intervention: InterventionSpec
    base: Callable[[], "StudyConfig"]
    seeds: tuple[int, ...]

    def pairing(self, strength: float = 1.0) -> WhatifPairing:
        return WhatifPairing(
            intervention=self.intervention,
            base=self.base(),
            seeds=self.seeds,
            strength=strength,
        )


def _golden_small_base() -> "StudyConfig":
    from repro.core.golden import small_pinned_config

    return small_pinned_config(0)


def _sav_adoption() -> WhatifPreset:
    # The pinned seed0-small window is 69 weeks; the SAV default ramp
    # (weeks 128-200) sits entirely outside it, so the intervention
    # moves the adoption ramp in-window and halves the post-ramp
    # spoofable share (strength interpolates the halving).
    return WhatifPreset(
        intervention=InterventionSpec(
            name="sav-adoption",
            title="Faster, deeper SAV adoption",
            anchor="paper §2.3; Netscout -17% RA",
            description=(
                "Source-address validation ramps up inside the study "
                "window (weeks 8-30 instead of post-window) and ends at "
                "half the observed spoofable share, throttling the "
                "reflection-amplification supply every RA vantage point "
                "feeds on."
            ),
            ops=(
                set_op("sav.ramp_start_week", 8),
                set_op("sav.ramp_end_week", 30),
                scale_op("sav.share_after", 0.5),
            ),
        ),
        base=_golden_small_base,
        seeds=(0, 1),
    )


def _takedown_earlier() -> WhatifPreset:
    from repro.scenarios.config import BooterTakedownScenario, ScenarioConfig

    return WhatifPreset(
        intervention=InterventionSpec(
            name="takedown-earlier",
            title="Booter takedown two months earlier, hitting harder",
            anchor="Hide&Seek §4-5",
            description=(
                "The coordinated booter seizure lands eight weeks sooner "
                "and removes 30% more of market capacity, stretching the "
                "post-takedown dip every DP vantage point records."
            ),
            ops=(
                shift_op("scenario.booter.takedown_week", -8.0),
                scale_op("scenario.booter.capacity_removed", 1.3),
            ),
        ),
        base=lambda: small_base(
            40,
            ScenarioConfig(booter=BooterTakedownScenario(takedown_week=20)),
        ),
        seeds=(0, 1),
    )


def _blackholing_aggressive() -> WhatifPreset:
    return WhatifPreset(
        intervention=InterventionSpec(
            name="blackholing-aggressive",
            title="IXP members blackhole sooner and more often",
            anchor="paper Table 2 (IXP BH)",
            description=(
                "IXP blackholing activates at a quarter of the paper's "
                "RA/DP byte-rate thresholds and members accept half "
                "again as many candidate routes — the IXP feed sees "
                "smaller attacks, the other nine vantage points do not."
            ),
            ops=(
                scale_op("tuning.ixp_ra_threshold_scale", 0.25),
                scale_op("tuning.ixp_dp_threshold_scale", 0.25),
                scale_op("tuning.ixp_blackhole_probability_scale", 1.5),
            ),
        ),
        base=lambda: small_base(32),
        seeds=(0, 1),
    )


def _severity_floor() -> WhatifPreset:
    return WhatifPreset(
        intervention=InterventionSpec(
            name="severity-floor",
            title="Netscout alert severity floor tripled",
            anchor="paper §5 (severity thresholds)",
            description=(
                "Netscout only alerts on attacks above three times the "
                "20 Mbps paper floor — the reporting-line shift that "
                "makes an industry feed's trend diverge from the "
                "academic telescopes watching the same traffic."
            ),
            ops=(scale_op("tuning.netscout_severity_floor_scale", 3.0),),
        ),
        base=lambda: small_base(32),
        seeds=(0, 1),
    )


#: Preset registry, in documentation order.
WHATIF_PRESETS: dict[str, Callable[[], WhatifPreset]] = {
    "sav-adoption": _sav_adoption,
    "takedown-earlier": _takedown_earlier,
    "blackholing-aggressive": _blackholing_aggressive,
    "severity-floor": _severity_floor,
}


def preset_names() -> list[str]:
    return list(WHATIF_PRESETS)


def whatif_preset(name: str, strength: float = 1.0) -> WhatifPairing:
    """Build the named preset's pairing at the given strength."""
    try:
        builder = WHATIF_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown whatif preset {name!r}; known: {preset_names()}"
        ) from None
    return builder().pairing(strength)
