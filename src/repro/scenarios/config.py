"""Sibling-paper scenario configuration (pure data + tiny pure helpers).

The paper under reproduction compares ten observatories on one synthetic
landscape; its *sibling* studies each probed one slice of that landscape
from one side.  A :class:`ScenarioConfig` bundles up to four optional
family deltas, one per sibling paper:

* :class:`BooterTakedownScenario` — the booter-takedown recovery and
  rebranding arc of "DDoS Hide & Seek" (Kopp et al., IMC 2019).
* :class:`CloudObservatoryScenario` — the auto-mitigation visibility bias
  of "One Year of DDoS Attacks Against a Cloud Provider" (DSN 2024),
  modelled as an eleventh vantage point.
* :class:`EmergenceScenario` — the amplification-vector rise/fall/persist
  dynamics of "DDoS Never Dies" (PAM 2021), as a delta on the
  reflection-vector supply mix.
* :class:`HoneypotPoolScenario` — honeypot pool-size/placement ablations
  probing the convergence result of the AmpPot line of work (RAID 2015).

A :class:`~repro.core.study.StudyConfig` whose ``scenario`` is ``None``
fingerprints exactly like one predating the field (see the
``omit-if-none`` rule in :mod:`repro.core.cache`), so the baseline study,
its goldens, and its cache entries are untouched by this subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.attacks.vectors import VectorKind, vector_by_name, vector_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.attacks.booters import BooterMarket
    from repro.util.calendar import StudyCalendar

#: Family attribute names on :class:`ScenarioConfig`, in display order.
SCENARIO_FAMILIES = ("booter", "cloud", "emergence", "honeypot_pool")


@dataclass(frozen=True)
class BooterTakedownScenario:
    """A single large booter takedown with recovery and rebranding.

    Timing is expressed in *study weeks* (not dates) so the same scenario
    runs on shortened tier-1 calendars.  The seized capacity returns on
    two channels: a delayed rebranding ramp (seized services reappearing
    under new domains) and a geometric organic recovery (customers
    migrating to survivors) — the "back within weeks" dynamic of the
    Hide & Seek takedown study.
    """

    takedown_week: int = 16
    capacity_removed: float = 0.55
    recovery_weeks: float = 5.0
    #: fraction of the seized capacity that returns via rebrands.
    rebrand_share: float = 0.5
    rebrand_delay_weeks: float = 2.0
    rebrand_ramp_weeks: float = 2.0

    def __post_init__(self) -> None:
        if self.takedown_week < 1:
            raise ValueError("takedown_week must be >= 1")
        if not 0 < self.capacity_removed < 1:
            raise ValueError("capacity_removed must be in (0, 1)")
        if self.recovery_weeks <= 0 or self.rebrand_ramp_weeks <= 0:
            raise ValueError("recovery/ramp durations must be positive")
        if not 0 <= self.rebrand_share <= 1:
            raise ValueError("rebrand_share must be in [0, 1]")
        if self.rebrand_delay_weeks < 0:
            raise ValueError("rebrand_delay_weeks must be >= 0")

    @property
    def takedown_day(self) -> int:
        """Study-day of the action (mid-week, so week boundaries are clean)."""
        return self.takedown_week * 7 + 3

    def market(self, calendar: "StudyCalendar") -> "BooterMarket":
        """The booter market implementing this scenario on a calendar."""
        from repro.attacks.booters import BooterMarket, RebrandTakedown

        if self.takedown_day >= calendar.n_days:
            raise ValueError(
                f"takedown week {self.takedown_week} outside the "
                f"{calendar.n_weeks}-week study window"
            )
        return BooterMarket(
            (
                RebrandTakedown(
                    day=self.takedown_day,
                    capacity_removed=self.capacity_removed,
                    recovery_days=self.recovery_weeks * 7.0,
                    rebrand_share=self.rebrand_share,
                    rebrand_delay_days=self.rebrand_delay_weeks * 7.0,
                    rebrand_ramp_days=self.rebrand_ramp_weeks * 7.0,
                ),
            )
        )


@dataclass(frozen=True)
class CloudObservatoryScenario:
    """An eleventh vantage point: a cloud provider with auto-mitigation.

    The platform covers victims in hosting ASes.  Attacks above the
    mitigation threshold are auto-mitigated with high probability and
    observed only until mitigation engages; attacks whose observed
    activity is shorter than the detection window never become alerts.
    Both biases — short attacks missing, big attacks truncated — are the
    cloud study's headline measurement caveats.
    """

    detection_probability: float = 0.95
    auto_mitigation_threshold_bps: float = 5e8
    mitigation_probability: float = 0.9
    time_to_mitigate_s: float = 300.0
    detection_window_s: float = 90.0

    def __post_init__(self) -> None:
        if not 0 < self.detection_probability <= 1:
            raise ValueError("detection_probability must be in (0, 1]")
        if not 0 <= self.mitigation_probability <= 1:
            raise ValueError("mitigation_probability must be in [0, 1]")
        if self.auto_mitigation_threshold_bps <= 0:
            raise ValueError("auto_mitigation_threshold_bps must be positive")
        if self.time_to_mitigate_s < 0 or self.detection_window_s < 0:
            raise ValueError("durations must be >= 0")


@dataclass(frozen=True)
class EmergenceScenario:
    """One amplification vector emerging, peaking, and persisting.

    The vector's sampling weight follows a piecewise-linear trajectory:
    zero before ``rise_week``, climbing to ``peak_weight`` at
    ``peak_week``, decaying to ``floor_weight`` by ``decay_week``, and
    *staying there* — amplification vectors decline after disclosure and
    patching but never disappear ("DDoS Never Dies").  Other vectors keep
    their baseline weights; the mix is renormalised at draw time.
    """

    vector: str = "TP240"
    rise_week: int = 10
    peak_week: int = 20
    decay_week: int = 30
    peak_weight: float = 0.60
    floor_weight: float = 0.06

    def __post_init__(self) -> None:
        try:
            kind = vector_by_name(self.vector).kind
        except KeyError:
            raise ValueError(
                f"unknown vector {self.vector!r}; see repro.attacks.vectors"
            ) from None
        if kind is not VectorKind.REFLECTION:
            raise ValueError(f"{self.vector!r} is not a reflection vector")
        if not 0 <= self.rise_week < self.peak_week < self.decay_week:
            raise ValueError("need rise_week < peak_week < decay_week")
        if self.peak_weight <= 0 or self.floor_weight < 0:
            raise ValueError("weights must be positive (floor may be 0)")
        if self.floor_weight > self.peak_weight:
            raise ValueError("floor_weight cannot exceed peak_weight")

    @property
    def vector_catalogue_id(self) -> int:
        """Catalogue id of the emerging vector."""
        return vector_id(self.vector)

    def weight_for_week(self, week: int) -> float:
        """The emerging vector's sampling weight in one study week."""
        if week < self.rise_week:
            return 0.0
        if week < self.peak_week:
            fraction = (week - self.rise_week) / (self.peak_week - self.rise_week)
            return self.peak_weight * fraction
        if week < self.decay_week:
            fraction = (week - self.peak_week) / (self.decay_week - self.peak_week)
            return self.peak_weight + (self.floor_weight - self.peak_weight) * fraction
        return self.floor_weight


@dataclass(frozen=True)
class HoneypotPoolScenario:
    """Honeypot sensor-pool ablation: effective pool size and placement.

    ``scale`` multiplies the effective sensor-pool size: each platform's
    per-vector reflector-selection probability ``p`` becomes
    ``1 - (1 - p) ** scale`` (independent sensors — doubling the pool
    squares the miss probability).  ``placement="uniform"`` drops the
    per-vector affinities, modelling sensors placed without protocol
    specialisation.
    """

    scale: float = 1.0
    placement: str = "paper"

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.placement not in ("paper", "uniform"):
            raise ValueError("placement must be 'paper' or 'uniform'")


@dataclass(frozen=True)
class ScenarioConfig:
    """Up to four sibling-paper family deltas on the baseline study."""

    booter: BooterTakedownScenario | None = None
    cloud: CloudObservatoryScenario | None = None
    emergence: EmergenceScenario | None = None
    honeypot_pool: HoneypotPoolScenario | None = None

    def __post_init__(self) -> None:
        if all(getattr(self, family) is None for family in SCENARIO_FAMILIES):
            raise ValueError("a ScenarioConfig needs at least one family")
