"""Federated target joins between academia and industry (paper Section 7.2).

The paper's methodological novelty: academic observatories aggregate their
target lists and share them with industry partners, who join them against
proprietary baselines and return only *shares* of confirmed targets.

Two directions are computed:

* **academic → industry** (Figures 9 and 13): for each exclusive
  intersection of academic observatories, the share of its targets present
  in the industry baseline.  The paper's headline: Netscout confirms ~20%
  of the targets seen by *all four* academic observatories but only 2-6%
  of single-observatory targets — large multi-vector attacks are visible
  everywhere.
* **industry → academic**: the share of the industry baseline seen by
  each academic observatory (15.2% / 13.6% / 5.7% / 3.1% for Netscout in
  the paper).

Industry baselines are subsampled (Netscout used ~28% of its alerts for
the forward join and ~23% for the reverse one), which we model with a
seeded subsample of the industry observation set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.overlap import Membership, UpsetResult


@dataclass(frozen=True)
class ConfirmationRow:
    """Confirmation share for one exclusive academic intersection."""

    members: tuple[str, ...]
    academic_count: int
    confirmed_count: int

    @property
    def share(self) -> float:
        """Fraction of the academic subset confirmed by industry."""
        if self.academic_count == 0:
            return 0.0
        return self.confirmed_count / self.academic_count


@dataclass
class FederationResult:
    """Both directions of one academic/industry join."""

    industry_name: str
    baseline_size: int
    forward: list[ConfirmationRow]  # academic subsets confirmed by industry
    reverse: dict[str, float]  # share of industry baseline seen per academic set
    reverse_union: float  # share of industry baseline seen by any academic set

    def forward_row(self, *members: str) -> ConfirmationRow:
        """The confirmation row for exactly the given member combination."""
        wanted = tuple(sorted(members))
        for row in self.forward:
            if tuple(sorted(row.members)) == wanted:
                return row
        return ConfirmationRow(members=wanted, academic_count=0, confirmed_count=0)


def subsample_baseline(
    baseline: np.ndarray, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """A seeded subsample of a sorted industry baseline (the paper's ~28% /
    ~23%): one uniform draw per key, in key order."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return baseline
    return baseline[rng.random(len(baseline)) < fraction]


def federate(
    members: Membership,
    academic_upset: UpsetResult,
    industry_name: str,
    industry_baseline: np.ndarray,
) -> FederationResult:
    """Join academic target sets against one industry baseline.

    ``members`` is the academic membership that ``academic_upset``
    decomposes; ``industry_baseline`` is a unique key array.
    """
    # The membership bitmask of every baseline key in the academic union.
    seen = members.mask[np.isin(members.keys, industry_baseline, assume_unique=True)]

    # Forward: confirmation share per exclusive academic intersection.
    confirmed = np.bincount(seen, minlength=1 << len(members.names))
    forward = [
        ConfirmationRow(
            members=row.members,
            academic_count=row.count,
            confirmed_count=int(confirmed[members.bits(*row.members)]),
        )
        for row in academic_upset.rows
    ]

    # Reverse: how much of the industry baseline does academia see?
    size = len(industry_baseline)
    reverse = {
        name: (np.count_nonzero(seen & members.bits(name)) / size if size else 0.0)
        for name in members.names
    }
    return FederationResult(
        industry_name=industry_name,
        baseline_size=size,
        forward=forward,
        reverse=reverse,
        reverse_union=len(seen) / size if size else 0.0,
    )
