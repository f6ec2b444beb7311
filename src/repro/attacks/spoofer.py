"""Crowd-sourced SAV measurement (the Spoofer project, paper §2.3/§9).

The paper discusses CAIDA's Spoofer project: volunteers run a client that
tests whether their current network can emit spoofed packets.  The
approach "yields limited measurement coverage", and Section 9 argues SAV
transparency needs sustained measurement infrastructure.

This module makes those claims quantitative inside the simulation:

* **ground truth** — each AS gets a remediation day drawn so the
  aggregate spoofable share follows the study's :class:`SavModel` curve;
* **measurement** — a volunteer population tests ASes over time, with a
  configurable coverage bias (volunteers cluster in education and large
  networks, which also remediate earlier);
* **estimation** — a rolling-window share estimator with Wilson
  confidence intervals, comparable against the ground-truth curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.attacks.spoofing import SavModel
from repro.net.asn import ASKind
from repro.net.plan import InternetPlan
from repro.util.calendar import StudyCalendar
from repro.util.rng import RngFactory


@dataclass(frozen=True)
class SpooferTest:
    """One volunteer test: can this AS spoof at this time?"""

    week: int
    asn: int
    can_spoof: bool


class SavGroundTruth:
    """Per-AS spoofability over time, consistent with a :class:`SavModel`.

    Initially-spoofable ASes are drawn with probability ``share_before``;
    each receives a remediation week distributed so the aggregate share
    tracks the model's ramp.  ASes that remediate never regress.
    """

    def __init__(
        self,
        plan: InternetPlan,
        sav: SavModel,
        calendar: StudyCalendar,
        rng_factory: RngFactory,
        *,
        early_remediation_kinds: frozenset[ASKind] = frozenset(
            {ASKind.EDUCATION, ASKind.CLOUD}
        ),
    ) -> None:
        self.sav = sav
        self.calendar = calendar
        rng = rng_factory.stream("spoofer/ground-truth")
        self._spoofable_from_start: dict[int, bool] = {}
        self._remediation_week: dict[int, float] = {}

        ramp_span = sav.ramp_end_week - sav.ramp_start_week
        remediating_share = 1.0 - sav.share_after / sav.share_before
        for info in plan.ases:
            spoofable = bool(rng.random() < sav.share_before)
            self._spoofable_from_start[info.asn] = spoofable
            if not spoofable:
                continue
            if rng.random() < remediating_share:
                # Uniform remediation over the ramp reproduces the linear
                # decline; early-remediation kinds land in the first half.
                position = rng.random()
                if info.kind in early_remediation_kinds:
                    position *= 0.5
                self._remediation_week[info.asn] = (
                    sav.ramp_start_week + position * ramp_span
                )
            else:
                self._remediation_week[info.asn] = math.inf

    def can_spoof(self, asn: int, week: float) -> bool:
        """Whether the AS permits spoofing at ``week``."""
        if not self._spoofable_from_start.get(asn, False):
            return False
        return week < self._remediation_week.get(asn, math.inf)

    def true_share(self, week: float, asns: list[int]) -> float:
        """Ground-truth spoofable share over a set of ASes."""
        if not asns:
            return 0.0
        return sum(self.can_spoof(asn, week) for asn in asns) / len(asns)


@dataclass(frozen=True)
class ShareEstimate:
    """Windowed spoofable-share estimate with a Wilson interval."""

    week: int
    tests: int
    positive: int

    @property
    def share(self) -> float:
        """Point estimate."""
        return self.positive / self.tests if self.tests else 0.0

    def wilson_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson score interval for the share."""
        n = self.tests
        if n == 0:
            return (0.0, 1.0)
        p = self.share
        denominator = 1 + z * z / n
        centre = (p + z * z / (2 * n)) / denominator
        margin = (
            z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denominator
        )
        return (max(0.0, centre - margin), min(1.0, centre + margin))


class SpooferCampaign:
    """A volunteer measurement campaign over the study window."""

    def __init__(
        self,
        plan: InternetPlan,
        ground_truth: SavGroundTruth,
        rng_factory: RngFactory,
        *,
        tests_per_week: int = 25,
        volunteer_bias: float = 0.0,
        biased_kinds: frozenset[ASKind] = frozenset(
            {ASKind.EDUCATION, ASKind.CLOUD}
        ),
    ) -> None:
        """``volunteer_bias`` in [0, 1): probability that a test comes from
        the volunteer-heavy AS kinds instead of a uniform draw."""
        if not 0 <= volunteer_bias < 1:
            raise ValueError("volunteer_bias must be in [0, 1)")
        self.plan = plan
        self.ground_truth = ground_truth
        self.tests_per_week = tests_per_week
        self.volunteer_bias = volunteer_bias
        self._rng = rng_factory.stream("spoofer/campaign")
        self._all_asns = sorted(info.asn for info in plan.ases)
        self._biased_asns = sorted(
            info.asn for info in plan.ases if info.kind in biased_kinds
        ) or self._all_asns

    def run(self) -> list[SpooferTest]:
        """Execute the campaign; returns every test result."""
        results: list[SpooferTest] = []
        for week in range(self.ground_truth.calendar.n_weeks):
            for _ in range(self.tests_per_week):
                if self._rng.random() < self.volunteer_bias:
                    pool = self._biased_asns
                else:
                    pool = self._all_asns
                asn = int(pool[int(self._rng.integers(len(pool)))])
                results.append(
                    SpooferTest(
                        week=week,
                        asn=asn,
                        can_spoof=self.ground_truth.can_spoof(asn, week),
                    )
                )
        return results


def estimate_shares(
    tests: list[SpooferTest], n_weeks: int, window_weeks: int = 13
) -> list[ShareEstimate]:
    """Rolling-window share estimates, one per week."""
    by_week: dict[int, list[bool]] = {}
    for test in tests:
        by_week.setdefault(test.week, []).append(test.can_spoof)
    estimates: list[ShareEstimate] = []
    for week in range(n_weeks):
        window = range(max(0, week - window_weeks + 1), week + 1)
        outcomes = [o for w in window for o in by_week.get(w, ())]
        estimates.append(
            ShareEstimate(week=week, tests=len(outcomes), positive=sum(outcomes))
        )
    return estimates


def coverage(tests: list[SpooferTest], total_asns: int) -> float:
    """Fraction of ASes ever tested — the paper's coverage complaint."""
    if total_asns == 0:
        return 0.0
    return len({test.asn for test in tests}) / total_asns
