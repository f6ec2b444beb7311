"""Vendor-style threat-report generation (paper Section 3, inverted).

The paper dissects how industry reports present DDoS data: vague
methodology, metrics mixed between absolute and relative "depending on the
message to be emphasised", cherry-picked growth numbers, impressive-
sounding percentages that hide small absolute changes.

This module closes the loop: given an observatory's attack records, it
*writes* such a report.  Two modes:

* ``neutral`` — the numbers as a measurement paper would give them;
* ``promotional`` — the same numbers with the presentation tricks the
  paper catalogues: for each metric the generator picks whichever framing
  (relative or absolute, quarter or year) shows the largest increase, and
  buries decreases in softer language.

Beyond the satire, the generator is the honest test harness for the
survey taxonomy: every metric in
:data:`repro.industry.corpus.METRIC_FIELDS` has a concrete computation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.attacks.events import AttackClass
from repro.attacks.vectors import VECTORS
from repro.net.plan import InternetPlan
from repro.observatories.base import Observations
from repro.util.calendar import StudyCalendar


class ReportTone(enum.Enum):
    """Presentation mode."""

    NEUTRAL = "neutral"
    PROMOTIONAL = "promotional"


@dataclass
class ReportInputs:
    """Pre-computed metrics for one reporting year vs the previous one."""

    year: int
    total: int
    previous_total: int
    peak_gbps: float
    previous_peak_gbps: float
    median_duration_min: float
    short_attack_share: float  # share under 10 minutes
    vector_shares: dict[str, float]
    udp_share: float
    ra_share: float
    dp_share: float
    #: share of attacks per target region (from RIR allocations); empty
    #: when no plan context was available.
    region_shares: dict[str, float] = None  # type: ignore[assignment]
    #: share of attacks per target sector (AS kind); empty without a plan.
    sector_shares: dict[str, float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.region_shares is None:
            object.__setattr__(self, "region_shares", {})
        if self.sector_shares is None:
            object.__setattr__(self, "sector_shares", {})

    @property
    def total_change(self) -> float:
        """Year-over-year relative change in attack counts."""
        if self.previous_total == 0:
            return 0.0
        return (self.total - self.previous_total) / self.previous_total

    @property
    def peak_change(self) -> float:
        """Year-over-year relative change in peak attack size."""
        if self.previous_peak_gbps == 0:
            return 0.0
        return (self.peak_gbps - self.previous_peak_gbps) / self.previous_peak_gbps


def compute_inputs(
    observations: Observations,
    calendar: StudyCalendar,
    year: int,
    plan: InternetPlan | None = None,
) -> ReportInputs:
    """Extract the report metrics for ``year`` from attack records."""
    day_dates = {  # day index -> year, computed lazily per unique day
        int(day): calendar.date_of_day(int(day)).year
        for day in np.unique(observations.day)
    }
    years = np.asarray([day_dates[int(day)] for day in observations.day])
    current = years == year
    previous = years == year - 1
    if not current.any():
        raise ValueError(f"no records in {year}")

    bps = observations.bps
    vectors = observations.vector_id

    vector_counts: dict[str, int] = {}
    for vector_id in vectors[current].tolist():
        name = VECTORS[vector_id].name
        vector_counts[name] = vector_counts.get(name, 0) + 1
    total = int(current.sum())
    vector_shares = {
        name: count / total
        for name, count in sorted(vector_counts.items(), key=lambda kv: -kv[1])
    }
    udp_share = sum(
        share
        for name, share in vector_shares.items()
        if VECTORS[_vector_index(name)].protocol == 17
    )
    ra_mask = current & (
        observations.attack_class
        == int(AttackClass.REFLECTION_AMPLIFICATION)
    )

    region_shares: dict[str, float] = {}
    sector_shares: dict[str, float] = {}
    if plan is not None:
        region_counts: dict[str, int] = {}
        sector_counts: dict[str, int] = {}
        for target in observations.target[current].tolist():
            region = plan.rir.region_of(target)
            if region is not None:
                region_counts[region] = region_counts.get(region, 0) + 1
            asn = plan.origin_as(target)
            if asn is not None:
                kind = plan.ases.get(asn).kind.value
                sector_counts[kind] = sector_counts.get(kind, 0) + 1
        region_shares = {
            region: count / total
            for region, count in sorted(region_counts.items(), key=lambda kv: -kv[1])
        }
        sector_shares = {
            kind: count / total
            for kind, count in sorted(sector_counts.items(), key=lambda kv: -kv[1])
        }
    durations = observations.duration[current]
    durations = durations[np.isfinite(durations)]
    if len(durations):
        median_duration_min = float(np.median(durations)) / 60.0
        short_share = float((durations < 600.0).mean())
    else:
        # Feeds without duration reporting fall back to the industry
        # boilerplate ("most attacks under 10 minutes").
        median_duration_min = 10.0
        short_share = 0.62
    return ReportInputs(
        year=year,
        total=total,
        previous_total=int(previous.sum()),
        peak_gbps=float(bps[current].max()) / 1e9,
        previous_peak_gbps=(
            float(bps[previous].max()) / 1e9 if previous.any() else 0.0
        ),
        median_duration_min=median_duration_min,
        short_attack_share=short_share,
        vector_shares=vector_shares,
        udp_share=udp_share,
        ra_share=float(ra_mask.sum()) / total,
        dp_share=1.0 - float(ra_mask.sum()) / total,
        region_shares=region_shares,
        sector_shares=sector_shares,
    )


def _vector_index(name: str) -> int:
    for index, vector in enumerate(VECTORS):
        if vector.name == name:
            return index
    raise KeyError(name)


def generate_report(
    vendor: str,
    inputs: ReportInputs,
    tone: ReportTone = ReportTone.NEUTRAL,
) -> str:
    """Render a vendor-style annual DDoS threat report."""
    if tone is ReportTone.NEUTRAL:
        return _neutral_report(vendor, inputs)
    return _promotional_report(vendor, inputs)


def _neutral_report(vendor: str, inputs: ReportInputs) -> str:
    lines = [
        f"# {vendor} DDoS Threat Report {inputs.year}",
        "",
        "## Method",
        "Counts are attack alerts observed on our platform; year-over-year",
        "comparisons use the same detection configuration in both years.",
        "",
        "## Findings",
        f"- attacks observed: {inputs.total} "
        f"({inputs.total_change * +100:+.1f}% vs {inputs.year - 1}, "
        f"{inputs.previous_total} then)",
        f"- peak attack size: {inputs.peak_gbps:.1f} Gbps "
        f"({inputs.peak_change * 100:+.1f}% vs {inputs.year - 1})",
        f"- median duration: ~{inputs.median_duration_min:.0f} minutes; "
        f"{inputs.short_attack_share * 100:.0f}% of attacks under 10 minutes",
        f"- class mix: {inputs.dp_share * 100:.0f}% direct-path, "
        f"{inputs.ra_share * 100:.0f}% reflection-amplification",
        f"- UDP-based vectors carry {inputs.udp_share * 100:.0f}% of attacks",
        "",
        "## Top vectors",
    ]
    for name, share in list(inputs.vector_shares.items())[:5]:
        lines.append(f"- {name}: {share * 100:.1f}%")
    if inputs.region_shares:
        lines.append("")
        lines.append("## Targeted regions")
        for region, share in list(inputs.region_shares.items())[:5]:
            lines.append(f"- {region}: {share * 100:.1f}%")
    if inputs.sector_shares:
        lines.append("")
        lines.append("## Targeted sectors")
        for sector, share in list(inputs.sector_shares.items())[:5]:
            lines.append(f"- {sector}: {share * 100:.1f}%")
    return "\n".join(lines)


def _promotional_report(vendor: str, inputs: ReportInputs) -> str:
    """The Section-3 presentation style: pick the scariest framing."""
    lines = [
        f"# {vendor} {inputs.year} DDoS Threat Landscape: "
        "The Threat Keeps Growing",
        "",
    ]
    # Headline: choose whichever metric grew the most; if everything
    # shrank, pivot to a vector-level increase or to absolute peaks.
    candidates = []
    if inputs.total_change > 0:
        candidates.append(
            ("attack volume", inputs.total_change, "attacks observed surged")
        )
    if inputs.peak_change > 0:
        candidates.append(
            ("peak size", inputs.peak_change, "record-breaking peak sizes grew")
        )
    if candidates:
        _, change, verb = max(candidates, key=lambda c: c[1])
        lines.append(f"**{verb} {change * 100:.0f}% year over year.**")
    else:
        # Nothing grew: lead with the absolute peak ("biggest ever seen").
        lines.append(
            f"**We mitigated attacks peaking at {inputs.peak_gbps:.1f} Gbps — "
            "among the largest ever observed on our platform.**"
        )
    lines.append("")
    if inputs.total_change < 0:
        # A decrease is reframed as a shift in attacker behaviour.
        lines.append(
            "Attackers are shifting tactics: raw counts normalised while "
            "attack sophistication increased."
        )
    top_vector, top_share = next(iter(inputs.vector_shares.items()))
    lines.extend(
        [
            f"{top_vector} now accounts for {top_share * 100:.0f}% of attacks "
            "we see.",
            f"{inputs.short_attack_share * 100:.0f}% of attacks end within 10 "
            "minutes — faster than most teams can respond without automated "
            "protection.",
            "",
            f"*Talk to {vendor} about always-on mitigation.*",
        ]
    )
    return "\n".join(lines)
