"""End-to-end integration tests over a small but complete study run."""

import numpy as np
import pytest

from repro.attacks.events import AttackClass
from repro.core.study import Study
from repro.observatories.base import Observations, SeriesKey
from repro.observatories.registry import ACADEMIC_OBSERVATORIES
from tests.conftest import small_study_config


class TestPipeline:
    def test_all_observatories_report(self, small_study):
        observations = small_study.observations
        expected = {
            "UCSD",
            "ORION",
            "Hopscotch",
            "AmpPot",
            "NewKid",
            "Netscout",
            "Akamai",
            "IXP",
        }
        assert set(observations) == expected
        for name in ("UCSD", "Hopscotch", "Netscout"):
            assert len(observations[name]) > 0

    def test_main_series_are_ten(self, small_study):
        series = small_study.main_series()
        assert len(series) == 10
        for weekly in series.values():
            assert len(weekly) == small_study.calendar.n_weeks

    def test_telescopes_see_only_rsdos(self, small_study):
        for name in ("UCSD", "ORION"):
            observations = small_study.observations[name]
            assert (observations.attack_class == int(AttackClass.DIRECT_PATH)).all()
            assert observations.spoofed.all()

    def test_honeypots_see_only_reflection(self, small_study):
        for name in ("Hopscotch", "AmpPot", "NewKid"):
            observations = small_study.observations[name]
            assert (
                observations.attack_class
                == int(AttackClass.REFLECTION_AMPLIFICATION)
            ).all()

    def test_ucsd_sees_more_than_orion(self, small_study):
        assert len(small_study.observations["UCSD"]) > 2 * len(
            small_study.observations["ORION"]
        )

    def test_simulated_durations_are_recorded(self, small_study):
        durations = small_study.observations["Netscout"].duration
        assert np.isfinite(durations).all()  # simulation reports every one
        # Generator floors durations at 60 s with a ~600 s median.
        assert np.median(durations) >= 60.0
        assert 0.0 < (durations < 600.0).mean() < 1.0


class TestDeterminism:
    def test_same_seed_reproduces_counts(self, small_study):
        rerun = Study(small_study_config())
        for name, observations in rerun.observations.items():
            assert len(observations) == len(small_study.observations[name])
            assert np.array_equal(
                observations.target, small_study.observations[name].target
            )

    def test_different_seed_differs(self, small_study):
        other = Study(small_study_config(seed=99))
        same = all(
            len(other.observations[name]) == len(small_study.observations[name])
            for name in other.observations
        )
        assert not same


class TestFigures:
    def test_figure2_series_and_slopes(self, small_study):
        figure = small_study.artifact_result("fig2_trends")
        assert set(figure.series) == {
            "ORION",
            "UCSD",
            "Netscout (DP)",
            "Akamai (DP)",
            "IXP (DP)",
        }
        slopes = figure.trend_slopes()
        for label in figure.series:
            assert 2019 in slopes[label]

    def test_direct_path_peaks_do_not_coincide(self, small_study):
        # Section 6.1: the platforms' peaks "did not coincide in time".
        weeks = [
            weekly.peak_week()
            for label, weekly in small_study.main_series().items()
            if "(RA)" not in label
        ]
        assert max(weeks) - min(weeks) > 3

    def test_figure3_has_no_takedowns_in_short_window(self, small_study):
        figure = small_study.artifact_result("fig3_trends")
        assert figure.takedown_weeks == []
        assert len(figure.series) == 5

    def test_figure4_heatmap_shape(self, small_study):
        figure = small_study.artifact_result("fig4_heatmap")
        assert figure.matrix.shape == (10, small_study.calendar.n_weeks)
        assert figure.labels[0] == "ORION"

    def test_figure5_shares_sum_to_one(self, small_study):
        shares = small_study.artifact_result("fig5_shares")
        assert np.allclose(shares.dp_share + shares.ra_share, 1.0)

    def test_figure6_matrices(self, small_study):
        figure = small_study.artifact_result("fig6_correlation")
        assert figure.normalized.coefficients.shape == (10, 10)
        assert figure.smoothed.coefficients.shape == (10, 10)
        assert figure.pearson_normalized.method == "pearson"
        # EWMA series correlate at least as strongly on average (paper).
        raw_mean = np.abs(figure.normalized.coefficients).mean()
        smooth_mean = np.abs(figure.smoothed.coefficients).mean()
        assert smooth_mean >= raw_mean - 0.05

    def test_figure7_upset_consistency(self, small_study):
        result = small_study.artifact_result("fig7_upset")
        assert set(result.set_names) == set(ACADEMIC_OBSERVATORIES)
        assert sum(row.count for row in result.rows) == result.universe_size
        assert result.universe_size == len(small_study.academic_universe)

    def test_figure8_highly_visible_subset_of_universe(self, small_study):
        result = small_study.artifact_result("fig8_highly_visible")
        assert np.isin(result.keys, small_study.academic_universe).all()
        assert 0 <= result.share_of_universe < 0.1
        assert result.total_per_week.sum() == len(result.keys)

    def test_figure9_confirmation_shares_bounded(self, small_study):
        result = small_study.artifact_result("federation")
        for row in result.forward:
            assert 0.0 <= row.share <= 1.0
            assert row.confirmed_count <= row.academic_count
        for share in result.reverse.values():
            assert 0.0 <= share <= 1.0
        assert result.reverse_union >= max(result.reverse.values())

    def test_figure10_overlap_bounded_by_parts(self, small_study):
        figures = small_study.artifact_result("fig10_overlap")
        assert set(figures) == {"telescopes", "honeypots"}
        for figure in figures.values():
            assert (figure.weekly_shared <= figure.weekly_a + 1e-9).all()
            assert (figure.weekly_shared <= figure.weekly_b + 1e-9).all()
            assert figure.union_share_of_universe <= 1.0

    def test_figure12_newkid_erratic(self, small_study):
        series = small_study.artifact_result("fig12_newkid")
        # Single sensor: sparse counts with empty weeks.
        assert (series.counts == 0).any()
        assert series.counts.sum() > 0

    def test_figure13_akamai_join(self, small_study):
        result = small_study.artifact_result("federation_akamai")
        assert result.industry_name == "Akamai"
        assert result.baseline_size > 0

    def test_figure14_quarterly_boxes(self, small_study):
        figure = small_study.artifact_result("fig14_quarterly")
        assert figure.pairs
        for stats in figure.pairs.values():
            assert -1.0 <= stats.minimum <= stats.median <= stats.maximum <= 1.0


class TestTables:
    def test_table1_structure(self, small_study):
        rows = small_study.artifact_result("table1")
        assert [row.attack_type for row in rows] == ["DP", "RA"]
        dp_row = rows[0]
        assert len(dp_row.observatory_trends) == 5
        assert dp_row.industry.increase == 5
        assert dp_row.industry.decrease == 0

    def test_table2_inventory(self, small_study):
        rows = small_study.artifact_result("table2")
        platforms = [row.platform for row in rows]
        assert platforms == [
            "UCSD NT",
            "ORION NT",
            "Netscout",
            "Akamai",
            "IXP BH",
            "Hopscotch",
            "AmpPot",
            "NewKid",
        ]
        ucsd = rows[0]
        assert ucsd.flow_identifier == "protocol, src IP"
        assert "25" in ucsd.threshold

    def test_table4_rows(self, small_study):
        rows = small_study.artifact_result("table4")
        if rows:  # the small run may have few highly-visible targets
            assert rows[0].rank == 1
            shares = [row.share for row in rows]
            assert shares == sorted(shares, reverse=True)


class TestSeriesAccess:
    def test_series_lookup_by_key(self, small_study):
        weekly = small_study.series(SeriesKey("Netscout", AttackClass.DIRECT_PATH))
        assert weekly.label == "Netscout (DP)"
        assert weekly.counts.sum() > 0

    def test_pairwise_target_overlaps(self, small_study):
        overlaps = small_study.pairwise_target_overlaps()
        assert overlaps[("ORION", "UCSD")] > 0.5  # ORION mostly inside UCSD
        for share in overlaps.values():
            assert 0.0 <= share <= 1.0


class TestHeadline:
    def test_headline_summary(self, small_study):
        headline = small_study.headline()
        assert set(headline) == {
            "window",
            "seed",
            "trends",
            "ra_dp_crossing",
            "all_four_target_share",
            "top_target_as",
        }
        assert "DP" in headline["trends"] and "RA" in headline["trends"]
        assert 0 <= headline["all_four_target_share"] < 0.05


class TestObservationsLifecycle:
    def test_append_after_materialise_rejected(self, small_study):
        import numpy as np
        import pytest as _pytest

        observations = small_study.observations["UCSD"]
        observations.day  # forces materialisation
        with _pytest.raises(RuntimeError):
            observations.append(
                0,
                np.asarray([1], dtype=np.int64),
                np.asarray([0], dtype=np.int8),
                np.asarray([10], dtype=np.int16),
                np.asarray([True]),
                np.asarray([1.0]),
            )

    @pytest.mark.parametrize("appends", [1, 3])
    def test_appended_arrays_are_copied(self, appends):
        observations = Observations("X")
        target = np.asarray([1, 2], dtype=np.int64)
        expected_days, expected_targets = [], []
        for day in range(appends):
            observations.append(
                day,
                target,
                np.zeros(2, dtype=np.int8),
                np.zeros(2, dtype=np.int16),
                np.ones(2, dtype=bool),
                np.ones(2),
            )
            expected_days += [day, day]
            expected_targets += target.tolist()
            # Mutating after the append must not change what was recorded.
            target += 10
        assert observations.day.tolist() == expected_days
        assert observations.target.tolist() == expected_targets
        assert np.isnan(observations.duration).all()
