"""Aggregate analytics over the industry-report corpus (paper Section 3).

Reproduces:

* Table 1's industry column — the number of reports claiming increasing /
  decreasing trends per attack type (▲(5) ▼(0) for direct path,
  ▲(2) ▼(3) for reflection-amplification);
* the metric taxonomy — how many reports publish each attack attribute;
* Table 3 — included/omitted documents per vendor;
* headline consistency checks (UDP dominance; L7 growth claims).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.industry.corpus import (
    INCLUDED_REPORTS,
    METRIC_FIELDS,
    OMITTED_DOCUMENTS,
    IndustryReport,
    TrendDirection,
)


@dataclass(frozen=True)
class TrendCounts:
    """Report counts per trend direction for one attack type."""

    attack_type: str
    increase: int
    decrease: int
    steady: int
    unspecified: int

    @property
    def total(self) -> int:
        """All surveyed reports."""
        return self.increase + self.decrease + self.steady + self.unspecified

    @property
    def table1_cell(self) -> str:
        """Render as the paper's Table-1 cell, e.g. ``▲(5), ▼(0)``."""
        return f"▲({self.increase}), ▼({self.decrease})"


def _count(reports: tuple[IndustryReport, ...], attribute: str, label: str) -> TrendCounts:
    votes = {direction: 0 for direction in TrendDirection}
    for report in reports:
        votes[getattr(report, attribute)] += 1
    return TrendCounts(
        attack_type=label,
        increase=votes[TrendDirection.INCREASE],
        decrease=votes[TrendDirection.DECREASE],
        steady=votes[TrendDirection.STEADY],
        unspecified=votes[TrendDirection.UNSPECIFIED],
    )


def trend_counts(
    reports: tuple[IndustryReport, ...] = INCLUDED_REPORTS,
) -> dict[str, TrendCounts]:
    """Per-attack-type trend counts (Table 1's industry column)."""
    return {
        "direct-path": _count(reports, "dp_trend", "direct-path"),
        "reflection-amplification": _count(
            reports, "ra_trend", "reflection-amplification"
        ),
        "overall": _count(reports, "overall_trend", "overall"),
        "application-layer": _count(reports, "l7_trend", "application-layer"),
    }


@dataclass(frozen=True)
class MetricFrequency:
    """How many reports publish one attack attribute."""

    metric: str
    reports: int
    share: float


def metric_frequencies(
    reports: tuple[IndustryReport, ...] = INCLUDED_REPORTS,
) -> list[MetricFrequency]:
    """Frequency of each taxonomy metric across reports, descending."""
    total = len(reports)
    rows = [
        MetricFrequency(
            metric=metric,
            reports=sum(1 for report in reports if metric in report.metrics),
            share=sum(1 for report in reports if metric in report.metrics) / total,
        )
        for metric in METRIC_FIELDS
    ]
    rows.sort(key=lambda row: (-row.reports, row.metric))
    return rows


def period_distribution(
    reports: tuple[IndustryReport, ...] = INCLUDED_REPORTS,
) -> dict[str, int]:
    """How many reports analyse a year, a half-year, or a quarter.

    The paper notes most reports cover one year and warns that quarterly
    or monthly comparisons "may be misleading" (Section 3).
    """
    buckets = {"annual": 0, "half-year": 0, "quarterly": 0}
    for report in reports:
        period = report.period
        if "Q" in period:
            buckets["quarterly"] += 1
        elif period.startswith(("1H", "2H")) or period.endswith(("H1", "H2")):
            buckets["half-year"] += 1
        else:
            buckets["annual"] += 1
    return buckets


def udp_dominance_share(
    reports: tuple[IndustryReport, ...] = INCLUDED_REPORTS,
) -> float:
    """Share of reports naming UDP-based vectors as dominant.

    The paper notes this is the one consistent claim across reports.
    """
    return sum(1 for report in reports if report.udp_dominant) / len(reports)


@dataclass(frozen=True)
class Table3Row:
    """One vendor row of the paper's Table 3."""

    vendor: str
    included: tuple[str, ...]
    omitted: tuple[str, ...]


def table3_rows() -> list[Table3Row]:
    """The included/omitted document inventory (Table 3)."""
    included_by_vendor: dict[str, list[str]] = {}
    for report in INCLUDED_REPORTS:
        included_by_vendor.setdefault(report.vendor, []).append(report.title)
    vendors = sorted(
        set(included_by_vendor) | set(OMITTED_DOCUMENTS), key=str.lower
    )
    return [
        Table3Row(
            vendor=vendor,
            included=tuple(included_by_vendor.get(vendor, ())),
            omitted=tuple(OMITTED_DOCUMENTS.get(vendor, ())),
        )
        for vendor in vendors
    ]
