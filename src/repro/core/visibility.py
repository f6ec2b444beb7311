"""Highly-visible targets and AS attribution (paper Sections 7.1, App. H).

"Highly-visible" targets are the (date, IP) tuples observed by *all four*
academic observatories (ORION, UCSD, Hopscotch, AmpPot) — 0.55% of all
targets in the paper.  This module builds their weekly time series
(new vs recurring, Figure 8) and attributes them to origin ASes
(Table 4: OVH leads with 18.8%).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.targets import cumulative_share, split_new_recurring
from repro.net.plan import InternetPlan
from repro.observatories.base import key_ips
from repro.util.calendar import StudyCalendar


@dataclass
class HighlyVisible:
    """The all-observatory target intersection and its derived series."""

    keys: np.ndarray  # sorted packed target keys
    distinct_ips: np.ndarray  # sorted
    share_of_universe: float
    new_per_week: np.ndarray
    recurring_per_week: np.ndarray
    cdf: np.ndarray

    @property
    def total_per_week(self) -> np.ndarray:
        """Stacked total (Figure 8's filled area)."""
        return self.new_per_week + self.recurring_per_week


def highly_visible(
    keys: np.ndarray,
    universe_size: int,
    calendar: StudyCalendar,
) -> HighlyVisible:
    """Package the all-observatory intersection into Figure-8 series."""
    new_counts, recurring_counts = split_new_recurring(keys, calendar)
    return HighlyVisible(
        keys=keys,
        distinct_ips=np.unique(key_ips(keys)),
        share_of_universe=(len(keys) / universe_size) if universe_size else 0.0,
        new_per_week=new_counts,
        recurring_per_week=recurring_counts,
        cdf=cumulative_share(new_counts + recurring_counts),
    )


@dataclass(frozen=True)
class AsRow:
    """One Table-4 row: an origin AS and its share of highly-visible tuples."""

    rank: int
    name: str
    asn: int
    tuples: int
    share: float
    kind: str


def top_target_ases(
    keys: np.ndarray,
    plan: InternetPlan,
    top_n: int = 10,
) -> list[AsRow]:
    """Attribute targets to origin ASes; return the top rows.

    Targets whose IP has no route (should not happen for generated
    targets) are dropped.
    """
    counts: dict[int, int] = {}
    ips, per_ip = np.unique(key_ips(keys), return_counts=True)
    for ip, count in zip(ips.tolist(), per_ip.tolist()):
        asn = plan.origin_as(ip)
        if asn is not None:
            counts[asn] = counts.get(asn, 0) + count
    total = sum(counts.values())
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    rows: list[AsRow] = []
    for rank, (asn, count) in enumerate(ordered[:top_n], start=1):
        info = plan.ases.get(asn)
        rows.append(
            AsRow(
                rank=rank,
                name=info.name,
                asn=asn,
                tuples=count,
                share=count / total if total else 0.0,
                kind=info.kind.value,
            )
        )
    return rows
