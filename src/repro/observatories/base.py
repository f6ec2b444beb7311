"""Observatory base classes and the attack records they return.

An :class:`Observatory` sweeps a ground-truth
:class:`~repro.attacks.events.ShardBatch` and returns the rows it detects
as :class:`Observations`: flat arrays of attack records (day, target,
attack class, vector, spoofed flag, measured bps, duration).  The analysis
toolkit in :mod:`repro.core` consumes only these records — exactly the
granularity the paper's data providers shared (daily attack counts and,
for the federation analysis, (date, target-IP) tuples).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.attacks.events import AttackClass
from repro.net.addr import IPV4_BITS, IPV4_MAX
from repro.util.calendar import StudyCalendar

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from numpy.typing import ArrayLike


@dataclass(frozen=True)
class SeriesKey:
    """Identifies one reported time series: an observatory and attack class.

    Netscout, Akamai, and the IXP each report direct-path and reflection-
    amplification attacks as separate series (e.g. ``Netscout (DP)``).
    """

    observatory: str
    attack_class: AttackClass

    @property
    def label(self) -> str:
        """Display label, e.g. ``"Akamai (RA)"``."""
        return f"{self.observatory} ({self.attack_class.label})"


#: Column names and dtypes of one observation record, in storage order.
OBSERVATION_COLUMNS: tuple[tuple[str, type], ...] = (
    ("day", np.int32),
    ("target", np.int64),
    ("attack_class", np.int8),
    ("vector_id", np.int16),
    ("spoofed", np.bool_),
    ("bps", np.float64),
    ("duration", np.float64),
)


def pack_keys(days: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Packed target keys ``day << 32 | ip`` of parallel record columns.

    An address lies in [0, 2**32), so the packed keys sort exactly like
    the (day, target-IP) tuples; a target outside that range raises
    ``ValueError``.
    """
    if len(targets) and (targets.min() < 0 or targets.max() > IPV4_MAX):
        raise ValueError("target address outside [0, 2**32)")
    return days.astype(np.int64) << IPV4_BITS | targets


def key_days(keys: np.ndarray) -> np.ndarray:
    """Study-day index of each packed target key (``day << 32 | ip``)."""
    return keys >> IPV4_BITS


def key_ips(keys: np.ndarray) -> np.ndarray:
    """Target IP of each packed target key (``day << 32 | ip``)."""
    return keys & IPV4_MAX


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 key array (``np.unique``'s result).

    The sorted values are the same for any sort kind, so this takes
    numpy's default sort: day-ordered records give a stable sort many
    short runs to merge, and on them the default sort is two to three
    times faster.
    """
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


class Observations:
    """The attack records of one observatory: seven parallel columns.

    Built once and immutable: every column is a read-only array.  An
    observatory's :meth:`Observatory.observe` returns one,
    :meth:`from_arrays` wraps stored columns, and :meth:`merge`
    concatenates day-range shards in order, which is how the sharded
    executor in :mod:`repro.util.parallel` combines per-shard results.
    Because nothing can change the records, :meth:`target_keys` derives
    the keys once per instance.
    """

    observatory: str
    day: np.ndarray  # study-day index per record
    target: np.ndarray  # target address per record
    attack_class: np.ndarray  # attack class (int8) per record
    vector_id: np.ndarray  # primary vector id per record
    spoofed: np.ndarray  # spoofed-source flag per record
    bps: np.ndarray  # measured attack bandwidth per record
    duration: np.ndarray  # seconds per record (NaN when unreported)

    def __init__(
        self,
        observatory: str,
        day: ArrayLike = (),
        target: ArrayLike = (),
        attack_class: ArrayLike = (),
        vector_id: ArrayLike = (),
        spoofed: ArrayLike = (),
        bps: ArrayLike = (),
        duration: ArrayLike | None = None,
    ) -> None:
        """Records from parallel arrays, copied; no columns is an empty feed.

        ``day`` is either one scalar study day or a per-record array;
        records must be in non-decreasing day order so downstream
        consumers can rely on day-sortedness.  ``duration`` (seconds) is
        optional for feeds that do not report it; missing values become
        NaN.
        """
        self.observatory = observatory
        n = len(target)
        days = np.asarray(day, dtype=np.int32)
        if days.ndim == 0:
            days = np.full(n, days)
        if duration is None:
            duration = np.full(n, np.nan)
        columns = (days, target, attack_class, vector_id, spoofed, bps, duration)
        if any(len(column) != n for column in columns):
            raise ValueError("parallel arrays must have equal length")
        for (name, dtype), column in zip(OBSERVATION_COLUMNS, columns):
            # np.array copies: a caller mutating its arrays afterwards
            # cannot change the records.
            column = np.array(column, dtype=dtype)
            column.flags.writeable = False
            setattr(self, name, column)
        self._keys: np.ndarray | None = None

    @classmethod
    def from_batch(
        cls,
        observatory: str,
        batch,
        hits: np.ndarray,
        duration: np.ndarray | None = None,
    ) -> "Observations":
        """The records of shard rows ``hits`` of a
        :class:`~repro.attacks.events.ShardBatch`.

        ``duration`` is what the platform reports per shard row; it
        defaults to the batch's own durations.
        """
        if duration is None:
            duration = batch.duration
        columns = (
            batch.days,
            batch.target,
            batch.attack_class,
            batch.vector_id,
            batch.spoofed,
            batch.bps,
            duration,
        )
        return cls(observatory, *(column[hits] for column in columns))

    @classmethod
    def from_arrays(
        cls, observatory: str, arrays: dict[str, np.ndarray]
    ) -> "Observations":
        """Wrap a stored column dict without copying (cache loads, the
        memory-mapped shard transport, shard merges).

        The caller hands the arrays over: each column is a read-only view,
        which leaves the caller's own arrays writable, so the caller must
        not write to them afterwards.
        """
        missing = {name for name, _ in OBSERVATION_COLUMNS} - set(arrays)
        if missing:
            raise ValueError(f"missing observation columns: {sorted(missing)}")
        observations = cls.__new__(cls)
        observations.observatory = observatory
        length = len(arrays["day"])
        for name, dtype in OBSERVATION_COLUMNS:
            column = np.asarray(arrays[name], dtype=dtype).view()
            if len(column) != length:
                raise ValueError(f"column {name} length mismatch")
            column.flags.writeable = False
            setattr(observations, name, column)
        observations._keys = None
        return observations

    @classmethod
    def merge(
        cls, parts: "list[Observations]", observatory: str | None = None
    ) -> "Observations":
        """Concatenate observations in order (e.g. day-range shards)."""
        if not parts:
            raise ValueError("need at least one part to merge")
        name = observatory if observatory is not None else parts[0].observatory
        return cls.from_arrays(
            name,
            {
                column: np.concatenate([getattr(part, column) for part in parts])
                for column, _ in OBSERVATION_COLUMNS
            },
        )

    def __len__(self) -> int:
        return len(self.day)

    # -- derived views -----------------------------------------------------------

    def class_mask(self, attack_class: AttackClass | None) -> np.ndarray:
        """Boolean mask selecting one attack class (or everything)."""
        if attack_class is None:
            return np.ones(len(self), dtype=bool)
        return self.attack_class == int(attack_class)

    def weekly_counts(
        self, calendar: StudyCalendar, attack_class: AttackClass | None = None
    ) -> np.ndarray:
        """New-attack counts summed per study week (paper Section 5)."""
        weeks = self.day[self.class_mask(attack_class)] // 7
        weeks = weeks[weeks < calendar.n_weeks]
        return np.bincount(weeks, minlength=calendar.n_weeks).astype(np.float64)

    def target_keys(self) -> np.ndarray:
        """Distinct targets as sorted int64 keys ``day << 32 | ip``.

        The paper identifies a target by its (day, target-IP) tuple
        (:func:`pack_keys`; a target outside [0, 2**32) raises
        ``ValueError``).  Built once and returned read-only, the same
        array on every call.
        """
        if self._keys is None:
            keys = unique_keys(pack_keys(self.day, self.target))
            keys.flags.writeable = False
            self._keys = keys
        return self._keys


class VisibilityNoise:
    """Weekly coverage noise of a vantage point.

    Real platforms' visibility fluctuates week to week — sensors flap,
    customers churn, alert feedback varies.  The paper leans on this to
    explain why raw weekly series correlate weakly even between platforms
    of the same type.  Modelled as an independent weekly thinning factor in
    ``(0, 1]``: ``min(1, Lognormal(ln(mean), sigma))``.

    Factors are drawn lazily but strictly in week order, so runs remain
    deterministic for a given stream.
    """

    def __init__(
        self, rng: np.random.Generator, mean: float = 0.8, sigma: float = 0.35
    ) -> None:
        if not 0 < mean <= 1:
            raise ValueError("mean must be in (0, 1]")
        self._rng = rng
        self._mean = mean
        self._sigma = sigma
        self._factors: list[float] = []

    def factor(self, week: int) -> float:
        """Thinning factor for a week (draws forward as needed)."""
        while len(self._factors) <= week:
            draw = self._rng.lognormal(mean=np.log(self._mean), sigma=self._sigma)
            self._factors.append(min(1.0, float(draw)))
        return self._factors[week]

    def factors_for(self, weeks: np.ndarray) -> np.ndarray:
        """Per-event thinning factors for an array of week indices.

        Fills the lazy cache forward to the largest requested week (same
        draw order as repeated :meth:`factor` calls), then gathers.
        """
        if not len(weeks):
            return np.empty(0)
        self.factor(int(weeks.max()))
        return np.asarray(self._factors)[weeks]


class Observatory(abc.ABC):
    """A vantage point converting ground truth into observed attack records.

    ``key`` matches the campaign-bias key in
    :data:`repro.attacks.events.OBSERVATORY_KEYS`; ``name`` is the display
    name; ``reported_classes`` lists the attack classes the platform
    reports as separate series.

    ``outages`` holds ``(first_day, last_day_exclusive)`` windows in which
    the platform recorded nothing.  The paper's data has two: ORION in
    2019Q3-Q4 and the IXP in January 2019 (Section 6.1).  Downstream, an
    outage is indistinguishable from the absence of attacks — exactly the
    caveat the paper raises.
    """

    key: str
    name: str
    reported_classes: tuple[AttackClass, ...]
    outages: tuple[tuple[int, int], ...] = ()

    def outage_mask(self, days: np.ndarray) -> np.ndarray:
        """Boolean mask of per-event days that fall inside an outage."""
        mask = np.zeros(len(days), dtype=bool)
        for start, end in self.outages:
            mask |= (days >= start) & (days < end)
        return mask

    @abc.abstractmethod
    def observe(self, batch) -> Observations:
        """Sweep one ground-truth batch and return the records it detects.

        ``batch`` is a :class:`~repro.attacks.events.ShardBatch` covering
        any range of days; implementations read ``batch.days`` and must
        never assume a single day.  The RNG draws of one call cover the
        whole batch, so the same events fed in several calls detect
        differently from one call.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
