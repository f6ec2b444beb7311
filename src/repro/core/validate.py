"""Feed validation: sanity checks for observatory data.

When the toolkit runs on real feeds (via :mod:`repro.core.io`), upstream
glitches — duplicated exports, day indices outside the study window,
class/vector mismatches, non-finite sizes — should be caught before they
silently skew weekly counts.  :func:`validate_observations` returns a
structured report instead of raising, so callers can decide what is fatal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.vectors import VECTORS, VectorKind
from repro.attacks.events import AttackClass
from repro.net.addr import IPV4_MAX
from repro.observatories.base import Observations
from repro.util.calendar import StudyCalendar


@dataclass
class ValidationReport:
    """Outcome of a feed validation run."""

    observatory: str
    records: int
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No errors (warnings allowed)."""
        return not self.errors

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        status = "OK" if self.ok else "INVALID"
        lines = [
            f"{self.observatory}: {status} "
            f"({self.records} records, {len(self.errors)} errors, "
            f"{len(self.warnings)} warnings)"
        ]
        lines.extend(f"  error: {error}" for error in self.errors)
        lines.extend(f"  warning: {warning}" for warning in self.warnings)
        return "\n".join(lines)


def validate_observations(
    observations: Observations,
    calendar: StudyCalendar,
    *,
    expected_classes: tuple[AttackClass, ...] | None = None,
    duplicate_warning_share: float = 0.5,
) -> ValidationReport:
    """Check an observation feed for structural problems.

    Errors (data unusable): out-of-window days, target addresses outside
    IPv4, unknown attack classes or vector ids, class/vector kind
    mismatches, non-finite or negative sizes.  Warnings (suspicious but
    workable): heavy same-day duplicate records, empty feeds, unexpected
    attack classes for the platform.
    """
    report = ValidationReport(
        observatory=observations.observatory, records=len(observations)
    )
    if len(observations) == 0:
        report.warnings.append("feed is empty")
        return report

    days = observations.day
    if int(days.min()) < 0 or int(days.max()) >= calendar.n_days:
        report.errors.append(
            f"day indices outside study window "
            f"[{int(days.min())}, {int(days.max())}] vs 0..{calendar.n_days - 1}"
        )

    targets = observations.target
    targets_in_range = int(targets.min()) >= 0 and int(targets.max()) <= IPV4_MAX
    if not targets_in_range:
        report.errors.append(
            f"target addresses outside [0, 2**32) "
            f"[{int(targets.min())}, {int(targets.max())}]"
        )

    classes = observations.attack_class
    known_classes = {int(attack_class) for attack_class in AttackClass}
    bad_classes = set(np.unique(classes).tolist()) - known_classes
    if bad_classes:
        report.errors.append(f"unknown attack classes: {sorted(bad_classes)}")

    vectors = observations.vector_id
    in_catalogue = (vectors >= 0) & (vectors < len(VECTORS))
    if not in_catalogue.all():
        report.errors.append(
            f"vector ids outside catalogue "
            f"[{int(vectors.min())}, {int(vectors.max())}]"
        )
    # Class/vector consistency: reflection records must carry reflection
    # vectors and vice versa.  Checked on the in-catalogue subset so a
    # range error does not silently swallow it; if nothing is checkable,
    # say so instead of silently branching.
    if in_catalogue.any():
        kinds = np.asarray(
            [
                1 if VECTORS[v].kind is VectorKind.REFLECTION else 0
                for v in range(len(VECTORS))
            ]
        )
        is_ra_vector = kinds[vectors[in_catalogue]] == 1
        is_ra_class = (
            classes[in_catalogue]
            == int(AttackClass.REFLECTION_AMPLIFICATION)
        )
        mismatched = int((is_ra_vector != is_ra_class).sum())
        if mismatched:
            report.errors.append(
                f"{mismatched} records with class/vector kind mismatch"
            )
    else:
        report.warnings.append(
            "class/vector consistency not checked (no in-catalogue vector ids)"
        )

    # Size checks are independent: a NaN-riddled feed must not mask
    # negative sizes among the finite records (and vice versa).
    bps = observations.bps
    finite = np.isfinite(bps)
    if not finite.all():
        report.errors.append(
            f"{int((~finite).sum())} non-finite attack sizes"
        )
    if (bps[finite] < 0).any():
        report.errors.append(
            f"{int((bps[finite] < 0).sum())} negative attack sizes"
        )

    if expected_classes is not None:
        allowed = {int(attack_class) for attack_class in expected_classes}
        unexpected = set(np.unique(classes).tolist()) - allowed
        if unexpected:
            report.warnings.append(
                f"classes outside the platform's remit: {sorted(unexpected)}"
            )

    # Duplicate (day, target) records are legitimate in small numbers
    # (repeated attacks in one day) but a mostly-duplicated feed smells
    # like a doubled export.  (Target keys need in-range addresses.)
    duplicate_share = (
        1.0 - len(observations.target_keys()) / len(observations)
        if targets_in_range
        else 0.0
    )
    if duplicate_share > duplicate_warning_share:
        report.warnings.append(
            f"{duplicate_share * 100:.0f}% same-day duplicate records"
        )
    return report


def validate_artifact(document: object) -> list[str]:
    """Validate one artifact document against the registry.

    Checks the envelope shape (every key in
    :data:`repro.core.artifacts.ENVELOPE_REQUIRED`), that the artifact
    name is registered, that ``schema_version`` matches the registered
    version for that artifact, and that the ``data`` block conforms to
    the artifact's mini JSON schema.  Returns human-readable error
    strings; an empty list means the document is valid.
    """
    from repro.core.artifacts import (
        ARTIFACT_ENVELOPE_VERSION,
        ARTIFACTS,
        ENVELOPE_REQUIRED,
    )
    from repro.obs import validate_manifest

    if not isinstance(document, dict):
        return [f"artifact document must be an object, got {type(document).__name__}"]
    errors = [
        f"missing envelope key {key!r}"
        for key in ENVELOPE_REQUIRED
        if key not in document
    ]
    if errors:
        return errors
    if document["envelope_version"] != ARTIFACT_ENVELOPE_VERSION:
        errors.append(
            f"envelope_version {document['envelope_version']!r} != "
            f"current {ARTIFACT_ENVELOPE_VERSION}"
        )
    name = document["artifact"]
    spec = ARTIFACTS.get(name)
    if spec is None:
        errors.append(f"unknown artifact {name!r}")
        return errors
    if document["schema_version"] != spec.schema_version:
        errors.append(
            f"{name}: schema_version {document['schema_version']!r} != "
            f"registered {spec.schema_version}"
        )
    errors.extend(validate_manifest(document["data"], spec.schema, path="$.data"))
    return errors


def validate_study_feeds(study) -> dict[str, ValidationReport]:
    """Validate every observatory feed of a study (self-check)."""
    from repro.observatories.base import Observatory

    reports: dict[str, ValidationReport] = {}
    for observatory in study.observatories.all():
        assert isinstance(observatory, Observatory)
        reports[observatory.name] = validate_observations(
            study.observations[observatory.name],
            study.calendar,
            expected_classes=observatory.reported_classes,
        )
    return reports
