"""Booter (DDoS-for-hire) market and law-enforcement takedowns.

The paper marks two takedowns in its Figure 3 (2022-12-13 and 2023-05-04)
and finds their footprint "indeterminate": small immediate valleys followed
by quick recovery, consistent with earlier findings that booters return
within months.  The market model reproduces that: total attack supply dips
by a bounded fraction at each takedown and recovers geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.calendar import TAKEDOWN_DATES, StudyCalendar


@dataclass(frozen=True)
class Takedown:
    """One law-enforcement action against booter infrastructure."""

    day: int
    capacity_removed: float  # fraction of market capacity seized
    recovery_days: float  # e-folding time of the recovery

    def __post_init__(self) -> None:
        if not 0 <= self.capacity_removed < 1:
            raise ValueError("capacity_removed must be in [0, 1)")
        if self.recovery_days <= 0:
            raise ValueError("recovery_days must be positive")

    def multiplier(self, day: int) -> float:
        """Capacity multiplier contributed by this takedown on ``day``."""
        if day < self.day:
            return 1.0
        elapsed = day - self.day
        remaining_dip = self.capacity_removed * math.exp(-elapsed / self.recovery_days)
        return 1.0 - remaining_dip


@dataclass(frozen=True)
class RebrandTakedown:
    """A takedown whose seized capacity returns on two channels.

    The Hide & Seek takedown study found seized booters reappearing under
    new domains within weeks while surviving services absorbed the
    displaced demand.  Here a ``rebrand_share`` of the removed capacity
    returns on a delayed linear ramp (the rebrands), and the remainder
    recovers geometrically (customer migration), so the dip is deepest
    immediately after the action and closes from both sides.  Fully
    deterministic — no RNG is consumed, which keeps scenario runs
    bit-identical across shard plans.
    """

    day: int
    capacity_removed: float  # fraction of market capacity seized
    recovery_days: float  # e-folding time of the organic recovery
    rebrand_share: float  # fraction of seized capacity returning via rebrands
    rebrand_delay_days: float  # quiet period before rebrands surface
    rebrand_ramp_days: float  # ramp length of the rebrand return

    def __post_init__(self) -> None:
        if not 0 <= self.capacity_removed < 1:
            raise ValueError("capacity_removed must be in [0, 1)")
        if self.recovery_days <= 0 or self.rebrand_ramp_days <= 0:
            raise ValueError("recovery_days and rebrand_ramp_days must be positive")
        if not 0 <= self.rebrand_share <= 1:
            raise ValueError("rebrand_share must be in [0, 1]")
        if self.rebrand_delay_days < 0:
            raise ValueError("rebrand_delay_days must be >= 0")

    def recovered_fraction(self, day: int) -> float:
        """Fraction of the seized capacity back in the market on ``day``."""
        if day < self.day:
            return 0.0
        elapsed = day - self.day
        organic = 1.0 - math.exp(-elapsed / self.recovery_days)
        ramp = min(
            1.0,
            max(0.0, (elapsed - self.rebrand_delay_days) / self.rebrand_ramp_days),
        )
        return self.rebrand_share * ramp + (1.0 - self.rebrand_share) * organic

    def multiplier(self, day: int) -> float:
        """Capacity multiplier contributed by this takedown on ``day``."""
        if day < self.day:
            return 1.0
        return 1.0 - self.capacity_removed * (1.0 - self.recovered_fraction(day))


class BooterMarket:
    """Aggregate booter capacity over the study window."""

    def __init__(self, takedowns: tuple[Takedown, ...]) -> None:
        self.takedowns = takedowns

    @classmethod
    def default(cls, calendar: StudyCalendar) -> "BooterMarket":
        """The two takedowns the paper marks, with modest, fast-recovering dips."""
        takedowns = tuple(
            Takedown(
                day=calendar.day_index(date),
                capacity_removed=removed,
                recovery_days=recovery,
            )
            for date, removed, recovery in (
                (TAKEDOWN_DATES[0], 0.12, 28.0),
                (TAKEDOWN_DATES[1], 0.08, 21.0),
            )
            if calendar.start <= date <= calendar.end
        )
        return cls(takedowns)

    @classmethod
    def without_takedowns(cls) -> "BooterMarket":
        """Counterfactual market with no law-enforcement action (ablation)."""
        return cls(())

    def capacity(self, day: int) -> float:
        """Market capacity multiplier (1.0 = undisturbed) on a study day."""
        multiplier = 1.0
        for takedown in self.takedowns:
            multiplier *= takedown.multiplier(day)
        return multiplier

    def takedown_days(self) -> list[int]:
        """Study-day indices of the modelled takedowns."""
        return [takedown.day for takedown in self.takedowns]


class BooterService:
    """One DDoS-for-hire service.

    Capacity shares across the market are heavy-tailed (a handful of large
    booters dominate).  A seizure takes the service offline; it reappears
    under a new domain after a recovery delay ("booters often reappear
    within a few months under different domains", Section 2.3).
    """

    __slots__ = ("service_id", "capacity_share", "offline_until", "domain_generation")

    def __init__(self, service_id: int, capacity_share: float) -> None:
        if capacity_share <= 0:
            raise ValueError("capacity share must be positive")
        self.service_id = service_id
        self.capacity_share = capacity_share
        self.offline_until = -1  # day index; -1 = never seized
        self.domain_generation = 0

    def alive_on(self, day: int) -> bool:
        """Whether the service is operating on a study day."""
        return day >= self.offline_until

    def seize(self, day: int, recovery_days: int) -> None:
        """Take the service down; it returns under a fresh domain."""
        self.offline_until = day + recovery_days
        self.domain_generation += 1

    @property
    def domain(self) -> str:
        """Current front domain (rotates after every seizure)."""
        return f"booter{self.service_id}-gen{self.domain_generation}.example"


class BooterEcosystem:
    """A population of booter services backing the market capacity.

    Compatible with :class:`BooterMarket` where it matters: exposes
    ``capacity(day)`` and ``takedown_days()``, so it can back a
    :class:`~repro.attacks.landscape.LandscapeModel` directly and lets
    analyses attribute attacks to individual services.
    """

    def __init__(
        self,
        rng,
        *,
        service_count: int = 40,
        zipf_exponent: float = 1.1,
        seizure_days: tuple[int, ...] = (),
        seized_per_action: int = 8,
        recovery_days_mean: float = 75.0,
        substitution: float = 0.7,
    ) -> None:
        if service_count < 1:
            raise ValueError("need at least one service")
        if not 0 <= substitution < 1:
            raise ValueError("substitution must be in [0, 1)")
        #: share of seized capacity absorbed by surviving services —
        #: customers migrate, which is why the paper sees only small
        #: valleys after seizures.
        self.substitution = substitution
        shares = 1.0 / np.arange(1, service_count + 1) ** zipf_exponent
        shares = shares / shares.sum()
        self.services = [
            BooterService(service_id=i, capacity_share=float(share))
            for i, share in enumerate(shares)
        ]
        self._seizure_days = tuple(sorted(seizure_days))
        # Pre-plan every seizure deterministically: law enforcement hits
        # the biggest services still online (the paper's takedowns seized
        # "the most popular platforms").
        self._recoveries: dict[int, list[tuple[int, int]]] = {}
        for day in self._seizure_days:
            alive = [s for s in self.services if s.alive_on(day)]
            alive.sort(key=lambda s: -s.capacity_share)
            for service in alive[:seized_per_action]:
                recovery = max(7, int(rng.exponential(recovery_days_mean)))
                service.seize(day, recovery)
                self._recoveries.setdefault(day, []).append(
                    (service.service_id, recovery)
                )
        # Reset transient state into a pure schedule: offline windows.
        self._offline_windows: dict[int, list[tuple[int, int]]] = {}
        for day, seized in self._recoveries.items():
            for service_id, recovery in seized:
                self._offline_windows.setdefault(service_id, []).append(
                    (day, day + recovery)
                )

    def is_alive(self, service_id: int, day: int) -> bool:
        """Whether a service operates on a day (outside seizure windows)."""
        for start, end in self._offline_windows.get(service_id, ()):
            if start <= day < end:
                return False
        return True

    def capacity(self, day: int) -> float:
        """Effective market capacity (1.0 = whole market up).

        Surviving services absorb part of the seized demand immediately
        (customer migration), so the market dip is much smaller than the
        seized capacity share.
        """
        alive_share = sum(
            service.capacity_share
            for service in self.services
            if self.is_alive(service.service_id, day)
        )
        return alive_share + self.substitution * (1.0 - alive_share)

    def takedown_days(self) -> list[int]:
        """Days with law-enforcement action."""
        return list(self._seizure_days)

    def offline_windows(self, service_id: int) -> list[tuple[int, int]]:
        """(start, end) day windows during which a service was seized."""
        return list(self._offline_windows.get(service_id, ()))

    def services_seized_on(self, day: int) -> list[int]:
        """Service ids seized by the action on ``day``."""
        return [service_id for service_id, _ in self._recoveries.get(day, ())]

    def attribute(self, rng, day: int) -> int:
        """Sample the service behind an attack launched on ``day``."""
        alive = [
            service for service in self.services
            if self.is_alive(service.service_id, day)
        ]
        if not alive:
            raise RuntimeError("entire booter market offline")
        shares = np.asarray([service.capacity_share for service in alive])
        choice = rng.choice(len(alive), p=shares / shares.sum())
        return alive[int(choice)].service_id

