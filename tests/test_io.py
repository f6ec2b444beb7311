"""Tests for the records CSV interchange."""

import numpy as np
import pytest

from repro.core.io import observations_from_csv, observations_to_csv


class TestObservationsCsv:
    def test_round_trip(self, small_study, tmp_path):
        original = small_study.observations["Hopscotch"]
        path = observations_to_csv(original, tmp_path / "hopscotch.csv")
        # The same rows with the days in reverse order (each day's rows in
        # file order) must come back day-sorted, exactly as written.
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rows.sort(key=lambda row: -int(row.split(",", 1)[0]))
        reversed_days = tmp_path / "reversed-days.csv"
        reversed_days.write_text(header + "".join(rows), encoding="utf-8")
        for source in (path, reversed_days):
            restored = observations_from_csv(source)
            assert len(restored) == len(original)
            assert np.array_equal(restored.target_keys(), original.target_keys())
            for column in ("day", "target", "attack_class", "vector_id", "spoofed"):
                assert np.array_equal(
                    getattr(restored, column), getattr(original, column)
                ), (source.name, column)
            # Weekly counts are identical after the round trip.
            a = original.weekly_counts(small_study.calendar)
            b = restored.weekly_counts(small_study.calendar)
            assert np.array_equal(a, b)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("day,target\n0,10.0.0.1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            observations_from_csv(path)

    def test_unknown_class_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text(
            "day,target,attack_class,vector,spoofed,bps\n"
            "0,10.0.0.1,XX,DNS,1,100\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError):
            observations_from_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "day,target,attack_class,vector,spoofed,bps\n", encoding="utf-8"
        )
        restored = observations_from_csv(path, name="empty")
        assert len(restored) == 0
        assert restored.observatory == "empty"
