"""Golden fingerprints: bit-exact regression pins for study outputs.

The conformance registry (:mod:`repro.core.conformance`) guards the
paper's *shape* claims with tolerances; this module guards against
*unintended numeric drift* of any kind.  For a pinned
:class:`~repro.core.study.StudyConfig` it fingerprints the key derived
arrays — weekly series, trend slopes, correlation matrices, ground-truth
weeklies — with sha256 over dtype, shape, and raw bytes, and stores them
as small JSON files under ``tests/goldens/``.

A golden mismatch means the simulation or an analysis stage changed
output for an identical configuration.  If the change is intentional
(a model fix, an RNG re-keying), refresh the pins with::

    ddoscovery conformance --update-goldens

and commit the regenerated JSON alongside the change; if it is not, the
fast tier-1 test that replays the small pinned config has just caught a
regression that same-process reruns cannot (see
``tests/test_determinism_subprocess.py`` for the cross-process variant).
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.attacks.events import AttackClass
from repro.core.cache import config_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (study -> golden)
    from repro.core.study import Study, StudyConfig

#: Environment variable overriding the golden directory.
GOLDEN_DIR_ENV = "REPRO_GOLDEN_DIR"

#: Bumped when the fingerprint payload layout changes.
GOLDEN_SCHEMA_VERSION = 1


def default_golden_dir() -> Path:
    """``$REPRO_GOLDEN_DIR`` or the repository's ``tests/goldens``."""
    override = os.environ.get(GOLDEN_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path(__file__).resolve().parents[3] / "tests" / "goldens"


# -- pinned configurations -----------------------------------------------------


def small_pinned_config(seed: int = 0) -> "StudyConfig":
    """The fast ~69-week configuration shared by tier-1 tests and goldens.

    Must stay in lockstep with the ``small_study`` fixture in
    ``tests/conftest.py`` (which imports it), so the tier-1 golden check
    rides on the simulation the test session runs anyway.
    """
    from repro.core.study import StudyConfig
    from repro.net.plan import PlanConfig
    from repro.util.calendar import StudyCalendar

    return StudyConfig(
        seed=seed,
        calendar=StudyCalendar(_dt.date(2019, 1, 1), _dt.date(2020, 4, 30)),
        dp_per_day=40.0,
        ra_per_day=30.0,
        plan=PlanConfig(seed=seed, tail_as_count=120),
    )


def pinned_configs() -> dict[str, "StudyConfig"]:
    """The named configurations with committed goldens."""
    from repro.core.study import StudyConfig

    return {
        "seed0-full": StudyConfig(seed=0),
        "seed0-small": small_pinned_config(0),
    }


# -- fingerprinting ------------------------------------------------------------


def fingerprint_array(array: np.ndarray) -> str:
    """sha256 over an array's dtype, shape, and raw bytes (bit-exact)."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode("ascii"))
    digest.update(repr(array.shape).encode("ascii"))
    digest.update(array.tobytes())
    return digest.hexdigest()


def study_fingerprints(study: "Study") -> dict[str, str]:
    """Fingerprints of the study's key derived arrays.

    Covers the weekly counts of every main series, the full-window trend
    slopes, both Figure-6 correlation matrices, and the per-class weekly
    ground truth — the arrays every downstream artefact derives from.
    """
    from repro.obs import span

    with span("conformance.fingerprints"):
        return _study_fingerprints(study)


def _study_fingerprints(study: "Study") -> dict[str, str]:
    fingerprints: dict[str, str] = {}
    series = study.main_series()
    for label, weekly in series.items():
        fingerprints[f"series/{label}/weekly-counts"] = fingerprint_array(
            weekly.counts
        )
    slopes = np.asarray(
        [series[label].trend_line().slope_per_year for label in series],
        dtype=np.float64,
    )
    fingerprints["trends/slope-per-year"] = fingerprint_array(slopes)
    correlation = study.artifact_result("fig6_correlation")
    fingerprints["correlation/spearman-raw"] = fingerprint_array(
        correlation.normalized.coefficients
    )
    fingerprints["correlation/spearman-ewma"] = fingerprint_array(
        correlation.smoothed.coefficients
    )
    for attack_class in AttackClass:
        fingerprints[f"ground-truth/{attack_class.name}"] = fingerprint_array(
            study.ground_truth_weekly(attack_class)
        )
    return fingerprints


def golden_payload(study: "Study", name: str) -> dict:
    """The JSON document pinned for one named configuration."""
    trends = {
        row.attack_type: {
            label: classification.symbol
            for label, classification in row.observatory_trends.items()
        }
        for row in study.artifact_result("table1")
    }
    return {
        "schema": GOLDEN_SCHEMA_VERSION,
        "name": name,
        "config_fingerprint": config_fingerprint(study.config),
        "window": f"{study.calendar.start}..{study.calendar.end}",
        "n_weeks": study.calendar.n_weeks,
        "seed": study.config.seed,
        "records": {
            observatory: len(observations)
            for observatory, observations in sorted(study.observations.items())
        },
        "summary": {
            "trends": trends,
            "ra_dp_crossing": study.artifact_result("fig5_shares").last_crossing_quarter(),
        },
        "fingerprints": study_fingerprints(study),
    }


def compare_fingerprints(
    actual: dict[str, str], golden: dict[str, str]
) -> list[str]:
    """Human-readable mismatch lines (empty means bit-exact match)."""
    mismatches: list[str] = []
    for key in sorted(set(actual) | set(golden)):
        if key not in golden:
            mismatches.append(f"{key}: not in golden (new output)")
        elif key not in actual:
            mismatches.append(f"{key}: pinned but no longer produced")
        elif actual[key] != golden[key]:
            mismatches.append(
                f"{key}: {actual[key][:12]}... != golden {golden[key][:12]}..."
            )
    return mismatches


# -- the store -----------------------------------------------------------------


class GoldenStore:
    """One directory of golden JSON documents, keyed by name."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_golden_dir()

    def path_for(self, name: str) -> Path:
        return self.root / f"{name}.json"

    def names(self) -> list[str]:
        """Names of all stored goldens."""
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json"))

    def load(self, name: str) -> dict | None:
        """One golden document, or ``None`` if absent or unreadable."""
        path = self.path_for(name)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def save(self, name: str, payload: dict) -> Path:
        """Write one golden document (pretty-printed for reviewable diffs),
        atomically: a temp file renamed over the old one."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(name)
        text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)
        fd, tmp_name = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=self.root)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            os.replace(tmp_name, path)
        except BaseException:
            os.unlink(tmp_name)
            raise
        return path


# -- verification --------------------------------------------------------------


@dataclass
class GoldenComparison:
    """Outcome of checking a study against one stored golden."""

    name: str
    #: "match" | "mismatch" | "missing" | "config-mismatch"
    status: str
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Missing goldens are not failures; drift and config clashes are."""
        return self.status in ("match", "missing")

    def render(self) -> str:
        lines = [f"golden '{self.name}': {self.status}"]
        if self.status == "missing":
            lines.append(
                "  no pinned fingerprints for this configuration; create "
                "them with --update-goldens"
            )
        lines.extend(f"  drift: {mismatch}" for mismatch in self.mismatches)
        return "\n".join(lines)


def verify_study(
    study: "Study", name: str, store: GoldenStore | None = None
) -> GoldenComparison:
    """Compare a study's fingerprints against the stored golden ``name``.

    A stored golden whose config fingerprint differs from the study's is
    reported as ``config-mismatch`` rather than compared — fingerprints of
    different configurations differ by construction.
    """
    store = store or GoldenStore()
    golden = store.load(name)
    if golden is None:
        return GoldenComparison(name=name, status="missing")
    if golden.get("config_fingerprint") != config_fingerprint(study.config):
        return GoldenComparison(
            name=name,
            status="config-mismatch",
            mismatches=[
                "stored golden pins a different StudyConfig; refresh with "
                "--update-goldens or pass the matching --seed/--weeks"
            ],
        )
    mismatches = compare_fingerprints(
        study_fingerprints(study), golden.get("fingerprints", {})
    )
    return GoldenComparison(
        name=name,
        status="match" if not mismatches else "mismatch",
        mismatches=mismatches,
    )
