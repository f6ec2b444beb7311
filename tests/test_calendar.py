"""Tests for the study calendar."""

import datetime as dt

import pytest

from repro.util.calendar import (
    STUDY_CALENDAR,
    StudyCalendar,
    TAKEDOWN_DATES,
)


class TestConstruction:
    def test_paper_window_has_235_weeks(self):
        # 2019-01-01 .. 2023-06-30 is 1642 days -> 234 complete weeks.
        assert STUDY_CALENDAR.n_weeks == 234
        assert STUDY_CALENDAR.n_days == 234 * 7

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            StudyCalendar(dt.date(2020, 1, 1), dt.date(2019, 1, 1))

    def test_rejects_sub_week_window(self):
        with pytest.raises(ValueError):
            StudyCalendar(dt.date(2020, 1, 1), dt.date(2020, 1, 3))

    def test_partial_trailing_week_is_dropped(self):
        calendar = StudyCalendar(dt.date(2020, 1, 1), dt.date(2020, 1, 17))
        assert calendar.n_weeks == 2
        assert calendar.n_days == 14


class TestConversions:
    def test_day_index_round_trip(self):
        date = dt.date(2020, 6, 15)
        index = STUDY_CALENDAR.day_index(date)
        assert STUDY_CALENDAR.date_of_day(index) == date

    def test_day_index_of_start_is_zero(self):
        assert STUDY_CALENDAR.day_index(STUDY_CALENDAR.start) == 0

    def test_out_of_window_date_raises(self):
        with pytest.raises(ValueError):
            STUDY_CALENDAR.day_index(dt.date(2018, 12, 31))

    def test_week_of_day(self):
        assert STUDY_CALENDAR.week_of_day(0) == 0
        assert STUDY_CALENDAR.week_of_day(6) == 0
        assert STUDY_CALENDAR.week_of_day(7) == 1

    def test_week_of_date(self):
        assert STUDY_CALENDAR.week_of_date(dt.date(2019, 1, 8)) == 1


class TestWeeks:
    def test_week_object_properties(self):
        week = STUDY_CALENDAR.week(0)
        assert week.start_date == dt.date(2019, 1, 1)
        assert week.year == 2019
        assert week.quarter == "2019Q1"

    def test_weeks_cover_whole_window(self):
        weeks = STUDY_CALENDAR.weeks()
        assert len(weeks) == STUDY_CALENDAR.n_weeks
        assert weeks[-1].index == STUDY_CALENDAR.n_weeks - 1

    def test_invalid_week_index_raises(self):
        with pytest.raises(ValueError):
            STUDY_CALENDAR.week(STUDY_CALENDAR.n_weeks)


class TestQuarters:
    def test_quarters_are_ordered_and_distinct(self):
        quarters = STUDY_CALENDAR.quarters()
        assert quarters[0] == "2019Q1"
        assert len(quarters) == len(set(quarters))
        # 4.5 years -> 18 quarters.
        assert len(quarters) == 18

    def test_weeks_in_quarter_partition_all_weeks(self):
        weeks = [
            week
            for quarter in STUDY_CALENDAR.quarters()
            for week in STUDY_CALENDAR.quarter_weeks[quarter]
        ]
        assert weeks == list(range(STUDY_CALENDAR.n_weeks))


class TestTakedowns:
    def test_takedown_dates_inside_window(self):
        for date in TAKEDOWN_DATES:
            assert STUDY_CALENDAR.start <= date <= STUDY_CALENDAR.end

    def test_paper_takedown_dates(self):
        assert TAKEDOWN_DATES[0] == dt.date(2022, 12, 13)
        assert TAKEDOWN_DATES[1] == dt.date(2023, 5, 4)
