"""The paper's analysis toolkit.

Everything in this package operates on observatory outputs
(:class:`~repro.observatories.base.Observations`) or plain numpy arrays —
it is usable on real attack feeds, not just the simulation:

* :mod:`repro.core.timeseries` — weekly aggregation, baseline
  normalisation, EWMA smoothing, linear-regression trend lines;
* :mod:`repro.core.stats` — Spearman/Pearson correlation with p-values;
* :mod:`repro.core.correlation` — correlation matrices and quarterly
  pairwise correlation distributions;
* :mod:`repro.core.trends` — rising/falling/steady classification;
* :mod:`repro.core.targets` / :mod:`repro.core.overlap` — (date, IP)
  target sets and UpSet-style intersection analysis;
* :mod:`repro.core.visibility` — highly-visible targets and AS
  attribution;
* :mod:`repro.core.federation` — academic-to-industry target joins;
* :mod:`repro.core.shares` — attack-class share series;
* :mod:`repro.core.study` — the end-to-end study runner regenerating
  every table and figure of the paper;
* :mod:`repro.core.conformance` — executable paper-shape claims evaluated
  into a structured pass/fail/skip report;
* :mod:`repro.core.golden` — bit-exact golden fingerprints of pinned
  study configurations;
* :mod:`repro.core.render` — plain-text rendering of the artefacts.
"""

from repro.core.conformance import (
    ConformanceReport,
    all_checks,
    evaluate_conformance,
)
from repro.core.consensus import consensus, evaluate_consensus
from repro.core.golden import GoldenStore, study_fingerprints, verify_study
from repro.core.correlation import correlation_matrix, quarterly_correlations
from repro.core.interventions import intervention_effect, takedown_effects
from repro.core.overlap import membership, pairwise_overlap_shares, upset
from repro.core.shares import share_series
from repro.core.stats import pearson, spearman
from repro.core.study import Study, StudyConfig, run_study
from repro.core.timeseries import WeeklySeries, ewma, normalize
from repro.core.trends import classify_trend

__all__ = [
    "Study",
    "StudyConfig",
    "run_study",
    "WeeklySeries",
    "normalize",
    "ewma",
    "classify_trend",
    "pearson",
    "spearman",
    "correlation_matrix",
    "quarterly_correlations",
    "membership",
    "upset",
    "pairwise_overlap_shares",
    "share_series",
    "consensus",
    "evaluate_consensus",
    "intervention_effect",
    "takedown_effects",
    "ConformanceReport",
    "all_checks",
    "evaluate_conformance",
    "GoldenStore",
    "study_fingerprints",
    "verify_study",
]
