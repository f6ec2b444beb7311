"""``repro.sweep``: declarative, resumable multi-run experimentation.

Four layers (see ``docs/SWEEPS.md``):

:mod:`repro.sweep.spec`
    :class:`ScenarioSpec` — axes of ``StudyConfig`` overrides expanded
    into deterministic :class:`SweepCell` s.
:mod:`repro.sweep.ledger`
    :class:`SweepLedger` — the on-disk JSONL run ledger under the study
    cache root, and the one owner of a sweep's identity and cells;
    interrupted sweeps resume with zero recomputed cells.
:mod:`repro.sweep.scheduler`
    :func:`run_sweep` — executes a ledger's cells through the sharded
    executor and study cache, appending results to the ledger.
:mod:`repro.sweep.report`
    :class:`SweepReport` — trend-symbol stability fractions, median/IQR
    bands, conformance pass rates.

Quick start::

    from repro.sweep import SweepLedger, preset, run_sweep

    outcome = run_sweep(SweepLedger(preset("smoke")), jobs=2)
    print(outcome.report.render())
"""

from repro.sweep.ledger import LedgerMismatch, SweepLedger
from repro.sweep.presets import (
    PRESETS,
    ablation_substrate,
    preset,
    preset_names,
)
from repro.sweep.report import CellResult, SweepReport, extract_cell
from repro.sweep.scheduler import (
    SweepOutcome,
    load_report,
    run_cell,
    run_sweep,
    sweep_provenance,
    sweep_status,
)
from repro.sweep.spec import (
    SWEEP_SCHEMA_VERSION,
    Axis,
    AxisPoint,
    ScenarioSpec,
    SweepCell,
    apply_overrides,
    axis,
    expand,
    seed_axis,
    spec_fingerprint,
    sweep_id,
)

__all__ = [
    "SWEEP_SCHEMA_VERSION",
    "Axis",
    "AxisPoint",
    "CellResult",
    "LedgerMismatch",
    "PRESETS",
    "ScenarioSpec",
    "SweepCell",
    "SweepLedger",
    "SweepOutcome",
    "SweepReport",
    "ablation_substrate",
    "apply_overrides",
    "axis",
    "expand",
    "extract_cell",
    "load_report",
    "preset",
    "preset_names",
    "run_cell",
    "run_sweep",
    "seed_axis",
    "spec_fingerprint",
    "sweep_id",
    "sweep_provenance",
    "sweep_status",
]
