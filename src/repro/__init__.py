"""DDoScovery reproduction: cross-observatory DDoS assessment toolkit.

This package reproduces the systems and analyses of "The Age of DDoScovery:
An Empirical Comparison of Industry and Academic DDoS Assessments"
(ACM IMC 2024).  It contains:

``repro.net``
    IPv4 addressing, prefix trie, RIR allocations, AS registry, and a
    synthetic-but-realistic Internet routing substrate.
``repro.traffic``
    Packet records and sliding-window rate estimation for the packet-level
    RSDoS detector.
``repro.attacks``
    The ground-truth DDoS landscape: amplification vectors, booter and
    botnet infrastructure, SAV deployment, a 4.5-year scenario, the attack
    event generator, and packet-trace synthesis.
``repro.observatories``
    The ten observatory models of the paper: network telescopes with a
    Corsaro-style RSDoS detector, honeypot platforms with per-platform
    thresholds and carpet-bombing aggregation, and industry flow monitors.
``repro.industry``
    A structured corpus of the 24 surveyed industry reports and the survey
    analytics of the paper's Section 3.
``repro.core``
    The paper's analysis toolkit: time-series normalisation, correlation,
    trend classification, target-overlap analysis, federation joins, and
    the end-to-end study runner that regenerates every table and figure.

The top-level namespace re-exports the most commonly used entry points.
"""

from typing import Any

__version__ = "1.0.0"

__all__ = [
    "ARTIFACTS",
    "InterventionSpec",
    "ScenarioSpec",
    "Study",
    "StudyConfig",
    "WhatifPairing",
    "run_study",
    "run_sweep",
    "run_whatif",
    "whatif_preset",
    "StudyCalendar",
    "STUDY_CALENDAR",
    "artifact_json_bytes",
    "artifact_names",
    "validate_artifact",
    "__version__",
]

_LAZY_EXPORTS = {
    "Study": ("repro.core.study", "Study"),
    "StudyConfig": ("repro.core.study", "StudyConfig"),
    "run_study": ("repro.core.study", "run_study"),
    "StudyCalendar": ("repro.util.calendar", "StudyCalendar"),
    "STUDY_CALENDAR": ("repro.util.calendar", "STUDY_CALENDAR"),
    # The stable facade: sweeps, counterfactuals, the artifact registry.
    "ScenarioSpec": ("repro.sweep.spec", "ScenarioSpec"),
    "run_sweep": ("repro.sweep.scheduler", "run_sweep"),
    "InterventionSpec": ("repro.counterfactual.spec", "InterventionSpec"),
    "WhatifPairing": ("repro.counterfactual.engine", "WhatifPairing"),
    "run_whatif": ("repro.counterfactual.engine", "run_whatif"),
    "whatif_preset": ("repro.counterfactual.presets", "whatif_preset"),
    "ARTIFACTS": ("repro.core.artifacts", "ARTIFACTS"),
    "artifact_json_bytes": ("repro.core.artifacts", "artifact_json_bytes"),
    "artifact_names": ("repro.core.artifacts", "artifact_names"),
    "validate_artifact": ("repro.core.validate", "validate_artifact"),
}


def __getattr__(name: str) -> Any:
    """Lazily resolve the public re-exports (PEP 562)."""
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attribute)
