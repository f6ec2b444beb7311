"""Target identity and per-week target series (paper Section 7).

The paper identifies a target as the tuple *(attack start date, target IP
address)* and deduplicates the resulting set; weekly plots count distinct
per-day tuples summed over the week.  A target set here is a sorted,
unique int64 array of packed keys ``day << 32 | ip``, as
:meth:`~repro.observatories.base.Observations.target_keys` returns.
"""

from __future__ import annotations

import numpy as np

from repro.observatories.base import key_days, key_ips
from repro.util.calendar import DAYS_PER_WEEK, StudyCalendar


def _weekly(weeks: np.ndarray, calendar: StudyCalendar) -> np.ndarray:
    return np.bincount(weeks, minlength=calendar.n_weeks).astype(np.float64)


def weekly_target_counts(keys: np.ndarray, calendar: StudyCalendar) -> np.ndarray:
    """Distinct per-day targets summed per week (Figure 10's series)."""
    weeks = key_days(keys) // DAYS_PER_WEEK
    return _weekly(weeks[weeks < calendar.n_weeks], calendar)


def split_new_recurring(
    keys: np.ndarray, calendar: StudyCalendar
) -> tuple[np.ndarray, np.ndarray]:
    """Weekly counts of first-time vs recurring target IPs (Figure 8).

    A target is *new* if its IP has not appeared on any earlier day.
    Returns (new_per_week, recurring_per_week).
    """
    keys = keys[key_days(keys) < calendar.n_days]
    weeks = key_days(keys) // DAYS_PER_WEEK
    # Keys sort by day first, so an IP's first index is its first sighting.
    new = np.zeros(len(keys), dtype=bool)
    new[np.unique(key_ips(keys), return_index=True)[1]] = True
    return _weekly(weeks[new], calendar), _weekly(weeks[~new], calendar)


def cumulative_share(values: np.ndarray) -> np.ndarray:
    """CDF over weeks: cumulative sum normalised to 1 (Figure 8's dashed
    line).  All-zero input yields all zeros."""
    values = np.asarray(values, dtype=np.float64)
    total = values.sum()
    if total == 0:
        return np.zeros_like(values)
    return np.cumsum(values) / total
