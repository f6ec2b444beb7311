"""Attack campaigns: correlated bursts with vantage-point-specific visibility.

A central empirical finding of the paper is that observatories of the same
attack type see *different* peaks: ORION's largest direct-path peaks fall in
2022Q1/Q2 but UCSD's in 2023Q2; AmpPot peaks "mysteriously" after Hopscotch
declines.  The mechanism is that real attack waves are campaigns — bursts
concentrated on particular infrastructure, launched from particular
toolchains — whose traffic is unevenly visible across vantage points.

We model this directly: a campaign adds events for a bounded period and
carries a per-observatory *visibility bias* multiplier, drawn once per
campaign.  Telescope bias models source-rotation behaviour and telescope
avoidance; honeypot bias models reflector-list composition; industry bias
models how much of the campaign hits their customer cones.

One campaign is scripted rather than random: the mid-2022 SSDP
carpet-bombing wave against Brazilian networks (paper Appendix I), which
produced spikes visible only at the honeypots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.events import OBSERVATORY_KEYS, AttackClass
from repro.attacks.vectors import vector_id
from repro.obs import span
from repro.util.calendar import StudyCalendar
from repro.util.rng import RngFactory


@dataclass(frozen=True)
class Campaign:
    """One attack wave.

    ``intensity`` scales the class's daily base rate: a campaign with
    intensity 0.5 adds 50% extra events per day while active.  ``bias``
    multiplies each observatory's per-event visibility while the event
    belongs to this campaign.
    """

    campaign_id: int
    attack_class: AttackClass
    start_day: int
    duration_days: int
    intensity: float
    bias: dict[str, float]
    vector_focus: int | None = None  # vector id, or None for the usual mix
    carpet: bool = False
    target_asn: int | None = None  # concentrate targets on one AS


@dataclass
class CampaignConfig:
    """Knobs for random campaign synthesis."""

    #: expected number of fresh campaigns per class per week.
    spawn_rate_per_week: float = 0.55
    #: mean campaign length in days (geometric).
    mean_duration_days: float = 14.0
    #: lognormal sigma of per-observatory visibility bias.
    bias_sigma: float = 0.9
    #: intensity range (uniform).
    intensity_low: float = 0.25
    intensity_high: float = 1.6
    #: probability a campaign concentrates on a single target AS.
    concentration_probability: float = 0.5


def prefix_columns(prefixes) -> tuple[np.ndarray, np.ndarray]:
    """Campaign target prefixes as parallel (network, size) int64 columns.

    The generator concentrates a campaign's events onto its target AS by
    drawing (prefix, offset) pairs; columnar bases/sizes let it draw a
    whole segment in two vectorised calls instead of one Python round trip
    per event.
    """
    bases = np.asarray([prefix.network for prefix in prefixes], dtype=np.int64)
    sizes = np.asarray([prefix.size for prefix in prefixes], dtype=np.int64)
    return bases, sizes


class CampaignModel:
    """All campaigns of the study window, precomputed deterministically."""

    def __init__(
        self,
        calendar: StudyCalendar,
        rng_factory: RngFactory,
        config: CampaignConfig | None = None,
        candidate_asns: list[int] | None = None,
    ) -> None:
        self.calendar = calendar
        self.config = config or CampaignConfig()
        self.campaigns: list[Campaign] = []
        # Span only, no counters: the model is memoised per process, so the
        # build runs a process-dependent number of times and counters here
        # would break the jobs-invariance of the merged metrics.
        with span("campaigns.build"):
            self._spawn_random(rng_factory, candidate_asns or [])
            self._add_scripted(candidate_asns or [])
            self._by_day: list[list[Campaign]] = [
                [] for _ in range(calendar.n_days)
            ]
            for campaign in self.campaigns:
                first = max(0, campaign.start_day)
                last = min(
                    calendar.n_days, campaign.start_day + campaign.duration_days
                )
                for day in range(first, last):
                    self._by_day[day].append(campaign)

    def _draw_bias(self, rng: np.random.Generator) -> dict[str, float]:
        """Per-observatory visibility multipliers for one campaign."""
        values = rng.lognormal(mean=0.0, sigma=self.config.bias_sigma,
                               size=len(OBSERVATORY_KEYS))
        return {
            key: float(np.clip(value, 0.05, 12.0))
            for key, value in zip(OBSERVATORY_KEYS, values)
        }

    def _spawn_random(
        self, rng_factory: RngFactory, candidate_asns: list[int]
    ) -> None:
        """Spawn random campaigns from per-(class, week) RNG streams.

        Keying the stream by attack class and spawn week (instead of one
        sequential stream over the whole window) makes the campaign set
        *calendar-prefix consistent*: a study over a shorter window spawns
        exactly the campaigns of a longer window's first weeks — the
        property the metamorphic conformance suite checks.
        """
        config = self.config
        campaign_id = 0
        for attack_class in AttackClass:
            for week_start in range(0, self.calendar.n_days, 7):
                rng = rng_factory.stream(
                    f"attacks/campaigns/{attack_class.name}/{week_start}"
                )
                spawned = rng.poisson(config.spawn_rate_per_week)
                for _ in range(spawned):
                    duration = 1 + int(rng.geometric(1.0 / config.mean_duration_days))
                    target_asn = None
                    if candidate_asns and rng.random() < config.concentration_probability:
                        target_asn = int(
                            candidate_asns[int(rng.integers(len(candidate_asns)))]
                        )
                    self.campaigns.append(
                        Campaign(
                            campaign_id=campaign_id,
                            attack_class=attack_class,
                            start_day=week_start + int(rng.integers(7)),
                            duration_days=duration,
                            intensity=float(
                                rng.uniform(config.intensity_low, config.intensity_high)
                            ),
                            bias=self._draw_bias(rng),
                        )
                    )
                    campaign_id += 1

    def _add_scripted(self, candidate_asns: list[int]) -> None:
        """The mid-2022 SSDP carpet-bombing wave (visible at honeypots only)."""
        import datetime as _dt

        wave_date = _dt.date(2022, 6, 6)
        if not self.calendar.start <= wave_date <= self.calendar.end:
            return  # shortened study windows (tests) skip the scripted wave
        start = self.calendar.day_index(wave_date)
        target_asn = candidate_asns[0] if candidate_asns else None
        bias = {key: 0.25 for key in OBSERVATORY_KEYS}
        bias["hopscotch"] = 4.0
        bias["amppot"] = 4.0
        bias["newkid"] = 3.0
        self.campaigns.append(
            Campaign(
                campaign_id=len(self.campaigns),
                attack_class=AttackClass.REFLECTION_AMPLIFICATION,
                start_day=start,
                duration_days=42,
                intensity=1.2,
                bias=bias,
                vector_focus=vector_id("SSDP"),
                carpet=True,
                target_asn=target_asn,
            )
        )

    def active(self, day: int) -> list[Campaign]:
        """Campaigns running on a study day."""
        return self._by_day[day]

    def __len__(self) -> int:
        return len(self.campaigns)
