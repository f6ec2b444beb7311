"""Study calendar: the fixed 4.5-year observation window of the paper.

The paper analyses attack data from 2019-01-01 through mid-2023 and
aggregates everything to *weeks* ("new attacks observed each day, summed up
to weekly totals", Section 5).  All modules share one calendar so that week
indices, quarters, and event timestamps line up across the generator, the
observatories, and the analysis toolkit.

Timestamps inside the simulation are represented as *seconds since the study
epoch* (``float``), and coarse positions as day or week indices (``int``).
Nothing in the package reads the wall clock.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from functools import cached_property

SECONDS_PER_DAY = 86_400
DAYS_PER_WEEK = 7
SECONDS_PER_WEEK = SECONDS_PER_DAY * DAYS_PER_WEEK


@dataclass(frozen=True)
class Week:
    """A study week: ``index`` is 0-based from the study start."""

    index: int
    start_date: _dt.date

    @property
    def year(self) -> int:
        """Calendar year of the week's first day."""
        return self.start_date.year

    @property
    def quarter(self) -> str:
        """Calendar quarter label of the week's first day, e.g. ``2020Q2``."""
        quarter = (self.start_date.month - 1) // 3 + 1
        return f"{self.start_date.year}Q{quarter}"


class StudyCalendar:
    """Maps between dates, day indices, week indices, and quarters.

    Parameters
    ----------
    start:
        First day of the observation window.
    end:
        Last day (inclusive).  Days after the final *complete* week are
        dropped, mirroring the paper's weekly totals.
    """

    def __init__(self, start: _dt.date, end: _dt.date) -> None:
        if end <= start:
            raise ValueError(f"study end {end} must be after start {start}")
        self.start = start
        self.end = end
        total_days = (end - start).days + 1
        self.n_weeks = total_days // DAYS_PER_WEEK
        if self.n_weeks < 1:
            raise ValueError("study window must contain at least one week")
        self.n_days = self.n_weeks * DAYS_PER_WEEK

    # -- conversions -------------------------------------------------------

    def day_index(self, date: _dt.date) -> int:
        """0-based day index of ``date`` within the window."""
        index = (date - self.start).days
        if not 0 <= index < self.n_days:
            raise ValueError(f"{date} outside study window")
        return index

    def date_of_day(self, day_index: int) -> _dt.date:
        """Date of a 0-based day index."""
        if not 0 <= day_index < self.n_days:
            raise ValueError(f"day index {day_index} outside study window")
        return self.start + _dt.timedelta(days=day_index)

    def week_of_day(self, day_index: int) -> int:
        """Week index of a day index."""
        if not 0 <= day_index < self.n_days:
            raise ValueError(f"day index {day_index} outside study window")
        return day_index // DAYS_PER_WEEK

    def week_of_date(self, date: _dt.date) -> int:
        """Week index of a calendar date."""
        return self.week_of_day(self.day_index(date))

    def week(self, index: int) -> Week:
        """The :class:`Week` with the given 0-based index."""
        if not 0 <= index < self.n_weeks:
            raise ValueError(f"week index {index} outside study window")
        start = self.start + _dt.timedelta(days=index * DAYS_PER_WEEK)
        return Week(index=index, start_date=start)

    def weeks(self) -> list[Week]:
        """All weeks in order."""
        return [self.week(i) for i in range(self.n_weeks)]

    # -- quarters ----------------------------------------------------------

    @cached_property
    def quarter_weeks(self) -> dict[str, list[int]]:
        """Week indices per quarter label, both in calendar order.

        A week belongs to the quarter of its first day.  Built in one pass
        and kept: the window never changes after construction.
        """
        grouped: dict[str, list[int]] = {}
        for week in self.weeks():
            grouped.setdefault(week.quarter, []).append(week.index)
        return grouped

    def quarters(self) -> list[str]:
        """Ordered distinct quarter labels covered by the study weeks."""
        return list(self.quarter_weeks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StudyCalendar({self.start.isoformat()}..{self.end.isoformat()}, "
            f"{self.n_weeks} weeks)"
        )


#: The paper's window: 2019-01-01 through 2023-06-30 (4.5 years).
STUDY_CALENDAR = StudyCalendar(_dt.date(2019, 1, 1), _dt.date(2023, 6, 30))

#: Law-enforcement booter takedowns marked in Figure 3 (per seizure warrants).
TAKEDOWN_DATES = (_dt.date(2022, 12, 13), _dt.date(2023, 5, 4))

#: Shortest calendar any entry point accepts (15-week normalisation
#: baseline plus one trailing week).
MIN_STUDY_WEEKS = 16


def calendar_for_weeks(weeks: int | None) -> StudyCalendar:
    """The paper window, optionally shortened to ``weeks`` from 2019-01-01.

    The single resolution used by the CLI and the service, so a
    ``"weeks": N`` job payload and a ``--weeks N`` flag can never build
    different calendars (and coalesce on the same config fingerprint).
    """
    if weeks is None:
        return STUDY_CALENDAR
    if weeks < MIN_STUDY_WEEKS:
        raise ValueError(
            f"need at least {MIN_STUDY_WEEKS} weeks "
            "(15-week normalisation baseline)"
        )
    start = _dt.date(2019, 1, 1)
    return StudyCalendar(start, start + _dt.timedelta(days=weeks * 7))
