"""Tests for feed validation."""

import numpy as np
import pytest

from repro.attacks.events import AttackClass
from repro.attacks.vectors import VECTORS, vector_id
from repro.core.validate import validate_observations, validate_study_feeds
from repro.observatories.base import Observations
from tests.conftest import SMALL_CALENDAR


def feed(
    days, vectors=None, classes=None, bps=None, spoofed=None, name="X", targets=None
):
    n = len(days)
    return Observations(
        name,
        days,
        targets or [1000 + i for i in range(n)],
        classes or [int(AttackClass.DIRECT_PATH)] * n,
        vectors or [vector_id("SYN-flood")] * n,
        spoofed or [True] * n,
        bps or [1e8] * n,
    )


def repeated(name, day, target, times):
    """One direct-path SYN-flood record exported ``times`` times."""
    return Observations(
        name,
        day,
        np.full(times, target, dtype=np.int64),
        np.full(times, int(AttackClass.DIRECT_PATH), dtype=np.int8),
        np.full(times, vector_id("SYN-flood"), dtype=np.int16),
        np.ones(times, dtype=bool),
        np.full(times, 1e8),
    )


class TestValidation:
    def test_clean_feed_ok(self):
        report = validate_observations(feed([0, 1, 2]), SMALL_CALENDAR)
        assert report.ok
        assert report.records == 3

    def test_empty_feed_warns(self):
        report = validate_observations(Observations("empty"), SMALL_CALENDAR)
        assert report.ok
        assert "empty" in report.warnings[0]

    def test_out_of_window_days(self):
        report = validate_observations(
            feed([0, SMALL_CALENDAR.n_days + 5]), SMALL_CALENDAR
        )
        assert not report.ok
        assert any("window" in error for error in report.errors)

    def test_out_of_range_targets(self):
        observations = feed([0, 1], targets=[1000, 1 << 32])
        report = validate_observations(observations, SMALL_CALENDAR)
        assert not report.ok
        assert any("target addresses" in error for error in report.errors)

    def test_unknown_vector_ids(self):
        report = validate_observations(
            feed([0], vectors=[len(VECTORS) + 3]), SMALL_CALENDAR
        )
        assert not report.ok

    def test_class_vector_mismatch(self):
        # DNS (reflection vector) recorded as direct-path: error.
        report = validate_observations(
            feed([0], vectors=[vector_id("DNS")]), SMALL_CALENDAR
        )
        assert not report.ok
        assert any("mismatch" in error for error in report.errors)

    def test_non_finite_sizes(self):
        report = validate_observations(
            feed([0], bps=[float("nan")]), SMALL_CALENDAR
        )
        assert not report.ok

    def test_unexpected_class_warns(self):
        report = validate_observations(
            feed([0]),
            SMALL_CALENDAR,
            expected_classes=(AttackClass.REFLECTION_AMPLIFICATION,),
        )
        assert report.ok  # warning, not error
        assert any("remit" in warning for warning in report.warnings)

    def test_duplicate_heavy_feed_warns(self):
        observations = repeated("dupes", 0, 1234, 4)
        report = validate_observations(observations, SMALL_CALENDAR)
        assert any("duplicate" in warning for warning in report.warnings)

    def test_summary_rendering(self):
        report = validate_observations(feed([0]), SMALL_CALENDAR)
        assert "OK" in report.summary()

    def test_empty_feed_skips_structural_checks(self):
        report = validate_observations(Observations("empty"), SMALL_CALENDAR)
        assert report.records == 0
        assert report.warnings == ["feed is empty"]
        assert report.errors == []

    def test_all_duplicate_feed_warns_but_stays_usable(self):
        observations = repeated("doubled-export", 3, 7777, 10)
        report = validate_observations(observations, SMALL_CALENDAR)
        assert report.ok  # duplicates are a warning, not an error
        assert any("90% same-day duplicate" in w for w in report.warnings)

    def test_vector_id_boundaries(self):
        # The extremes of the catalogue are valid; one past each end is not.
        ra = int(AttackClass.REFLECTION_AMPLIFICATION)
        dp = int(AttackClass.DIRECT_PATH)
        classes = [
            ra if VECTORS[v].kind.name == "REFLECTION" else dp
            for v in (0, len(VECTORS) - 1)
        ]
        report = validate_observations(
            feed([0, 1], vectors=[0, len(VECTORS) - 1], classes=classes),
            SMALL_CALENDAR,
        )
        assert report.ok, report.summary()
        for bad in (-1, len(VECTORS)):
            report = validate_observations(
                feed([0], vectors=[bad]), SMALL_CALENDAR
            )
            assert any("catalogue" in error for error in report.errors)

    def test_range_error_does_not_mask_kind_mismatch(self):
        # One out-of-catalogue id plus one in-catalogue mismatch: both the
        # range error and the kind-mismatch error must be reported.
        report = validate_observations(
            feed(
                [0, 1],
                vectors=[len(VECTORS), vector_id("DNS")],
                classes=[int(AttackClass.DIRECT_PATH)] * 2,
            ),
            SMALL_CALENDAR,
        )
        assert any("catalogue" in error for error in report.errors)
        assert any("mismatch" in error for error in report.errors)

    def test_no_checkable_vectors_warns_instead_of_silence(self):
        report = validate_observations(
            feed([0], vectors=[len(VECTORS)]), SMALL_CALENDAR
        )
        assert any("catalogue" in error for error in report.errors)
        assert any(
            "consistency not checked" in warning for warning in report.warnings
        )

    def test_nan_does_not_mask_negative_sizes(self):
        report = validate_observations(
            feed([0, 1], bps=[float("nan"), -5.0]), SMALL_CALENDAR
        )
        assert any("non-finite" in error for error in report.errors)
        assert any("negative" in error for error in report.errors)

    def test_expected_classes_warning_names_the_classes(self):
        report = validate_observations(
            feed([0]),
            SMALL_CALENDAR,
            expected_classes=(AttackClass.REFLECTION_AMPLIFICATION,),
        )
        assert report.ok
        (warning,) = [w for w in report.warnings if "remit" in w]
        assert str(int(AttackClass.DIRECT_PATH)) in warning


def reference_findings(observations, calendar, expected_classes=None):
    """The errors and warnings of the earlier ``validate_observations``,
    which took ``np.unique`` of the class column for each class check and
    built the vector-kind table on every call; kept as the reference."""
    from repro.attacks.vectors import VectorKind
    from repro.net.addr import IPV4_MAX

    errors, warnings = [], []
    if len(observations) == 0:
        return errors, ["feed is empty"]
    days = observations.day
    if int(days.min()) < 0 or int(days.max()) >= calendar.n_days:
        errors.append(
            f"day indices outside study window "
            f"[{int(days.min())}, {int(days.max())}] vs 0..{calendar.n_days - 1}"
        )
    targets = observations.target
    targets_in_range = int(targets.min()) >= 0 and int(targets.max()) <= IPV4_MAX
    if not targets_in_range:
        errors.append(
            f"target addresses outside [0, 2**32) "
            f"[{int(targets.min())}, {int(targets.max())}]"
        )
    classes = observations.attack_class
    known_classes = {int(attack_class) for attack_class in AttackClass}
    bad_classes = set(np.unique(classes).tolist()) - known_classes
    if bad_classes:
        errors.append(f"unknown attack classes: {sorted(bad_classes)}")
    vectors = observations.vector_id
    in_catalogue = (vectors >= 0) & (vectors < len(VECTORS))
    if not in_catalogue.all():
        errors.append(
            f"vector ids outside catalogue "
            f"[{int(vectors.min())}, {int(vectors.max())}]"
        )
    if in_catalogue.any():
        kinds = np.asarray(
            [
                1 if VECTORS[v].kind is VectorKind.REFLECTION else 0
                for v in range(len(VECTORS))
            ]
        )
        is_ra_vector = kinds[vectors[in_catalogue]] == 1
        is_ra_class = classes[in_catalogue] == int(
            AttackClass.REFLECTION_AMPLIFICATION
        )
        mismatched = int((is_ra_vector != is_ra_class).sum())
        if mismatched:
            errors.append(f"{mismatched} records with class/vector kind mismatch")
    else:
        warnings.append(
            "class/vector consistency not checked (no in-catalogue vector ids)"
        )
    bps = observations.bps
    finite = np.isfinite(bps)
    if not finite.all():
        errors.append(f"{int((~finite).sum())} non-finite attack sizes")
    if (bps[finite] < 0).any():
        errors.append(f"{int((bps[finite] < 0).sum())} negative attack sizes")
    if expected_classes is not None:
        allowed = {int(attack_class) for attack_class in expected_classes}
        unexpected = set(np.unique(classes).tolist()) - allowed
        if unexpected:
            warnings.append(f"classes outside the platform's remit: {sorted(unexpected)}")
    duplicate_share = (
        1.0 - len(observations.target_keys()) / len(observations)
        if targets_in_range
        else 0.0
    )
    if duplicate_share > 0.5:
        warnings.append(f"{duplicate_share * 100:.0f}% same-day duplicate records")
    return errors, warnings


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_errors_and_warnings(self, seed):
        """Random feeds with classes -128, -1, 7 and 127 beside the known
        two, out-of-catalogue vector ids, NaN, infinite and negative
        sizes, out-of-window days, out-of-range and repeated targets get
        exactly the old code's report."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        known = [int(attack_class) for attack_class in AttackClass]
        classes = rng.choice(known + [-128, -1, 7, 127][: seed % 5], n)
        vectors = rng.choice(
            [0, 1, len(VECTORS) - 1, vector_id("DNS"), vector_id("SYN-flood")]
            + [-1, len(VECTORS), 500][: seed % 4],
            n,
        )
        bps = rng.choice([1e8, 5.0, 0.0] + [np.nan, -3.0, np.inf][: seed % 4], n)
        days = np.sort(rng.integers(0, SMALL_CALENDAR.n_days + seed % 3, n))
        targets = rng.choice([0, 1, 1000, 1 << 31, (1 << 32) - 1 + seed % 2], n)
        observations = Observations(
            "X", days, targets, classes, vectors, np.ones(n, dtype=bool), bps
        )
        for expected in (None, (AttackClass.REFLECTION_AMPLIFICATION,), tuple(AttackClass)):
            report = validate_observations(
                observations, SMALL_CALENDAR, expected_classes=expected
            )
            assert (report.errors, report.warnings) == reference_findings(
                observations, SMALL_CALENDAR, expected
            )


class TestStudySelfCheck:
    def test_simulated_feeds_validate(self, small_study):
        reports = validate_study_feeds(small_study)
        assert len(reports) == 8
        for name, report in reports.items():
            assert report.ok, report.summary()
