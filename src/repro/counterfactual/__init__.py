"""Counterfactual what-if engine: paired studies under common random numbers.

The subsystem answers "which vantage point would notice the change, and
when?" for policy-style interventions on the synthetic landscape:

* :mod:`repro.counterfactual.spec` — :class:`InterventionSpec`:
  declarative, paper-anchored config deltas with strength interpolation
  and a structural zero-delta guarantee.
* :mod:`repro.counterfactual.engine` — :class:`WhatifPairing` /
  :func:`run_whatif`: lowers a pairing to an ordinary sweep (resumable
  ledger, ``should_stop`` drain, incremental progress) whose baseline
  legs are plain per-seed studies sharing the study cache.
* :mod:`repro.counterfactual.divergence` — the pure per-observatory
  detector (weekly effect vs a seed-ensemble noise band).
* :mod:`repro.counterfactual.report` — the :class:`DetectionReport`
  artefact: first-detection week per observatory, effect magnitude,
  trend-symbol flips; byte-identical across CLI/library/HTTP.
* :mod:`repro.counterfactual.presets` — the named what-ifs
  (``sav-adoption``, ``takedown-earlier``, ``blackholing-aggressive``,
  ``severity-floor``).
"""

from repro.counterfactual.divergence import (
    DEFAULT_BAND_FLOOR,
    DEFAULT_K_SIGMA,
    DivergenceSeries,
    detect,
    detect_series,
)
from repro.counterfactual.engine import (
    BASELINE_LEG,
    COUNTERFACTUAL_LEG,
    WhatifOutcome,
    WhatifPairing,
    build_detection_report,
    run_whatif,
)
from repro.counterfactual.presets import (
    WHATIF_PRESETS,
    WhatifPreset,
    preset_names,
    whatif_preset,
)
from repro.counterfactual.report import (
    DETECTION_REPORT_SCHEMA,
    DetectionReport,
    ObservatoryVerdict,
    validate_detection_report,
)
from repro.counterfactual.spec import (
    INTERVENTION_SCHEMA,
    WHATIF_SCHEMA_VERSION,
    InterventionOp,
    InterventionSpec,
    scale_op,
    set_op,
    shift_op,
    validate_intervention,
)

__all__ = [
    "BASELINE_LEG",
    "COUNTERFACTUAL_LEG",
    "DEFAULT_BAND_FLOOR",
    "DEFAULT_K_SIGMA",
    "DETECTION_REPORT_SCHEMA",
    "DetectionReport",
    "DivergenceSeries",
    "INTERVENTION_SCHEMA",
    "InterventionOp",
    "InterventionSpec",
    "ObservatoryVerdict",
    "WHATIF_PRESETS",
    "WHATIF_SCHEMA_VERSION",
    "WhatifOutcome",
    "WhatifPairing",
    "WhatifPreset",
    "build_detection_report",
    "detect",
    "detect_series",
    "preset_names",
    "run_whatif",
    "scale_op",
    "set_op",
    "shift_op",
    "validate_detection_report",
    "validate_intervention",
    "whatif_preset",
]
