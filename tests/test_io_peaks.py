"""Tests for CSV interchange and peak analysis."""

import numpy as np
import pytest

from repro.core.io import (
    csv_string,
    observations_from_csv,
    observations_to_csv,
    weekly_series_from_csv,
    weekly_series_to_csv,
)
from repro.core.peaks import Peak, alignment_matrix, find_peaks, peak_alignment


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


class TestWeeklyCsv:
    def test_round_trip(self, tmp_path):
        series = {
            "a": np.asarray([1.0, 2.5, 3.0]),
            "b": np.asarray([0.0, 10.0, 20.0]),
        }
        path = weekly_series_to_csv(series, tmp_path / "weekly.csv")
        restored = weekly_series_from_csv(path)
        assert set(restored) == {"a", "b"}
        assert np.allclose(restored["a"], series["a"])
        assert np.allclose(restored["b"], series["b"])

    def test_unequal_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            weekly_series_to_csv(
                {"a": np.ones(3), "b": np.ones(4)}, tmp_path / "x.csv"
            )

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,a\n0,1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            weekly_series_from_csv(path)

    def test_csv_string(self):
        text = csv_string({"a": np.asarray([1.0, 2.0])})
        assert text.splitlines()[0] == "week,a"
        assert len(text.splitlines()) == 3


class TestFindPeaks:
    def bumpy(self, centres, n=120, width=3.0, height=5.0):
        x = np.arange(n, dtype=float)
        values = np.ones(n)
        for centre in centres:
            values += height * np.exp(-((x - centre) ** 2) / (2 * width**2))
        return values

    def test_detects_isolated_bumps(self):
        peaks = find_peaks(self.bumpy([30, 80]))
        weeks = [peak.week for peak in peaks]
        assert len(weeks) == 2
        assert any(abs(week - 30) <= 5 for week in weeks)
        assert any(abs(week - 80) <= 5 for week in weeks)

    def test_flat_series_has_no_peaks(self):
        assert find_peaks(np.ones(100)) == []

    def test_small_wiggles_filtered(self):
        rng = np.random.default_rng(0)
        values = 10 + rng.normal(0, 0.05, 150)
        assert len(find_peaks(values)) <= 1

    def test_short_series(self):
        assert find_peaks(np.asarray([1.0, 2.0])) == []

    def test_prominence_positive(self):
        for peak in find_peaks(self.bumpy([50])):
            assert peak.prominence > 0
            assert isinstance(peak, Peak)


class TestPeakAlignment:
    def test_identical_series_align(self):
        values = TestFindPeaks().bumpy([30, 80])
        peaks = find_peaks(values)
        assert peak_alignment(peaks, peaks) == 1.0

    def test_disjoint_peaks_do_not_align(self):
        a = find_peaks(TestFindPeaks().bumpy([20]))
        b = find_peaks(TestFindPeaks().bumpy([90]))
        assert peak_alignment(a, b) == 0.0

    def test_empty_peak_list(self):
        assert peak_alignment([], []) == 0.0

    def test_alignment_matrix(self):
        helper = TestFindPeaks()
        series = {
            "x": helper.bumpy([30, 80]),
            "y": helper.bumpy([32, 78]),
            "z": helper.bumpy([110]),
        }
        labels, matrix = alignment_matrix(series)
        ix, iy, iz = (labels.index(k) for k in ("x", "y", "z"))
        assert matrix[ix, iy] == 1.0
        assert matrix[ix, iz] == 0.0
        assert np.allclose(np.diag(matrix), 1.0)

    def test_study_peaks_do_not_all_align(self, small_study):
        # The paper: telescope peaks "did not coincide in time" across
        # platforms; alignment must be partial, not total.
        series = {
            label: weekly.normalized
            for label, weekly in small_study.main_series().items()
            if "(RA)" not in label
        }
        labels, matrix = alignment_matrix(series, tolerance_weeks=3)
        off_diagonal = matrix[~np.eye(len(labels), dtype=bool)]
        assert off_diagonal.mean() < 0.95
