"""Paired baseline/counterfactual execution under common random numbers.

A :class:`WhatifPairing` binds an :class:`~repro.counterfactual.spec.
InterventionSpec` to a base config, a seed ensemble, and a strength, and
lowers the pair into an ordinary :class:`~repro.sweep.spec.ScenarioSpec`:
a ``seed`` axis crossed with a two-point ``leg`` axis whose *baseline*
point carries **no overrides** — so the baseline leg of each seed is the
plain study at that seed, fingerprint-identical to (and cache-shared
with) any study run outside the pairing.

Common random numbers need no plumbing here: every RNG stream is keyed
by ``(seed, stream name)`` only (:class:`~repro.util.rng.RngFactory`),
never by config values, so both legs of a seed draw identical attack
timelines, plan layouts, and noise — all weekly divergence is the
intervention's.

:func:`run_whatif` drives the pairing through the ordinary sweep
scheduler (warm ledger resume, per-cell manifests, ``should_stop``
drain) and reduces the paired ledger to a
:class:`~repro.counterfactual.report.DetectionReport`.  ``on_progress``
receives an incremental status dict after every settled cell — the
payload the service daemon republishes as job progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.counterfactual.divergence import detect
from repro.counterfactual.report import (
    DetectionReport,
    ObservatoryVerdict,
    _modal,
)
from repro.counterfactual.spec import InterventionSpec
from repro.sweep.ledger import SweepLedger
from repro.sweep.report import CellResult
from repro.sweep.scheduler import CellExecutor, SweepOutcome, run_sweep
from repro.sweep.spec import (
    Axis,
    AxisPoint,
    ScenarioSpec,
    SweepCell,
    expand,
    seed_axis,
    spec_fingerprint,
)

#: The two legs of every pairing, in axis order.
BASELINE_LEG = "baseline"
COUNTERFACTUAL_LEG = "counterfactual"

Log = Callable[[str], None]


def _silent(_: str) -> None:
    return None


@dataclass(frozen=True)
class WhatifPairing:
    """One counterfactual experiment: intervention × base × seeds."""

    intervention: InterventionSpec
    base: Any  # StudyConfig
    seeds: tuple[int, ...] = (0,)
    strength: float = 1.0

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("a pairing needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds: {self.seeds}")
        if self.base.tuning is not None:
            raise ValueError(
                "the baseline config must keep tuning=None; tuning deltas "
                "belong to the intervention"
            )

    def overrides(self) -> dict[str, Any]:
        """The intervention's resolved counterfactual-leg overrides."""
        return self.intervention.overrides(self.base, self.strength)

    @property
    def zero_delta(self) -> bool:
        """True when both legs resolve to the identical config (and so
        the identical cache entry — byte-identical feeds)."""
        return not self.overrides()

    def spec(self) -> ScenarioSpec:
        """Lower the pairing to a sweep spec: seeds × (baseline, cf)."""
        return ScenarioSpec(
            name=f"whatif-{self.intervention.name}",
            base=self.base,
            axes=(
                seed_axis(self.seeds),
                Axis(
                    name="leg",
                    points=(
                        AxisPoint.of(BASELINE_LEG, {}),
                        AxisPoint.of(COUNTERFACTUAL_LEG, self.overrides()),
                    ),
                ),
            ),
            description=self.intervention.description,
            anchor=self.intervention.anchor,
        )

    def fingerprint(self) -> str:
        return spec_fingerprint(self.spec())


@dataclass
class WhatifOutcome:
    """What one ``run_whatif`` invocation did."""

    pairing: WhatifPairing
    sweep: SweepOutcome
    #: ``None`` only when a stop drained the run before any seed had
    #: both legs in the ledger (nothing to compare yet).
    report: DetectionReport | None

    @property
    def stopped(self) -> bool:
        return self.sweep.stopped

    @property
    def sweep_id(self) -> str:
        return self.sweep.sweep_id


def run_whatif(
    pairing: WhatifPairing,
    *,
    jobs: int | None = 1,
    resume: bool = True,
    cache: bool | None = None,
    cache_dir: str | Path | None = None,
    sweep_dir: str | Path | None = None,
    should_stop: Callable[[], bool] | None = None,
    on_progress: Callable[[dict[str, Any]], None] | None = None,
    executor: CellExecutor | None = None,
    log: Log = _silent,
) -> WhatifOutcome:
    """Run (or resume) a paired study and build its detection report.

    Execution is the ordinary sweep scheduler: the pairing's cells land
    in a resumable JSONL ledger, each baseline leg is a plain study at
    its seed (a cache hit whenever that study ran before, paired or
    not), and ``should_stop`` drains between cells leaving the ledger
    resumable.  ``on_progress`` is called after every settled cell with
    an incremental status dict (cells done, executed vs ledger hits,
    and — once any seed has both legs — a running divergence summary).
    ``executor`` is forwarded to :func:`~repro.sweep.scheduler.run_sweep`
    (``None`` runs the cells inline).
    """
    spec = pairing.spec()
    cells = expand(spec)
    progress = {
        "intervention": pairing.intervention.name,
        "strength": float(pairing.strength),
        "n_cells": len(cells),
        "cells_done": 0,
        "executed": 0,
        "ledger_hits": 0,
        "divergence": None,
    }

    ledger_root = sweep_dir if sweep_dir is not None else cache_dir
    on_cell = None
    if on_progress is not None:

        def on_cell(cell: SweepCell, status: str) -> None:
            progress["cells_done"] += 1
            progress["executed" if status == "executed" else "ledger_hits"] += 1
            progress["divergence"] = _divergence_summary(spec, ledger_root)
            on_progress(dict(progress))

    with obs.span("whatif.run"):
        obs.gauge("whatif.cells").set(len(cells))
        sweep_outcome = run_sweep(
            spec,
            jobs=jobs,
            resume=resume,
            cache=cache,
            cache_dir=cache_dir,
            sweep_dir=sweep_dir,
            should_stop=should_stop,
            on_cell=on_cell,
            executor=executor,
            log=log,
        )
        report: DetectionReport | None
        try:
            report = build_detection_report(pairing, sweep_dir=ledger_root)
        except ValueError:
            # Only tolerable when a stop drained the run before any seed
            # finished both legs; a complete run must always reduce.
            if not sweep_outcome.stopped:
                raise
            report = None
    return WhatifOutcome(pairing=pairing, sweep=sweep_outcome, report=report)


# -- ledger reduction ----------------------------------------------------------


def _paired_results(
    spec: ScenarioSpec, ledger_root: str | Path | None
) -> tuple[dict[int, CellResult], dict[int, CellResult], int]:
    """Ledger cells split by leg: ``(baseline, counterfactual, total)``.

    Keys are seeds; only completed cells appear.  ``total`` is the full
    cell count, so callers can tell a partial pairing from a finished
    one.
    """
    cells = expand(spec)
    ledger = SweepLedger(spec, root=ledger_root)
    state = ledger.read()
    baseline: dict[int, CellResult] = {}
    counterfactual: dict[int, CellResult] = {}
    for cell in cells:
        if cell.index not in state.cells:
            continue
        result = CellResult.from_dict(state.cells[cell.index]["result"])
        leg = cell.label_map.get("leg")
        target = baseline if leg == BASELINE_LEG else counterfactual
        target[result.seed] = result
    return baseline, counterfactual, len(cells)


def _weekly_by_seed(
    results: dict[int, CellResult]
) -> dict[int, dict[str, list[float]]]:
    """Seeds whose ledger record carries the weekly series."""
    return {
        seed: result.main_weekly
        for seed, result in results.items()
        if result.main_weekly is not None
    }


def build_detection_report(
    pairing: WhatifPairing,
    *,
    sweep_dir: str | Path | None = None,
) -> DetectionReport:
    """Reduce a pairing's ledger to its :class:`DetectionReport`.

    Works from the ledger alone (pass ``sweep_dir`` to point at it
    without running anything), so ``whatif report`` never simulates.
    Seeds missing either leg — a stopped run — are excluded from the
    divergence comparison and the report is marked partial.  Detection
    uses :func:`~repro.counterfactual.divergence.detect`'s default
    thresholds; the report does not record them, so they are fixed.
    """
    spec = pairing.spec()
    ledger_root = sweep_dir
    with obs.span("whatif.detect"):
        baseline, counterfactual, n_cells = _paired_results(spec, ledger_root)
        baseline_weekly = _weekly_by_seed(baseline)
        counterfactual_weekly = _weekly_by_seed(counterfactual)
        paired_seeds = tuple(
            sorted(set(baseline_weekly) & set(counterfactual_weekly))
        )
        if not paired_seeds:
            raise ValueError(
                f"pairing {pairing.intervention.name!r}: no seed has both "
                "legs in the ledger yet (run or resume the pairing first)"
            )
        series = detect(
            {seed: baseline_weekly[seed] for seed in paired_seeds},
            {seed: counterfactual_weekly[seed] for seed in paired_seeds},
        )
        verdicts = tuple(
            ObservatoryVerdict(
                label=label,
                divergence=series[label],
                baseline_symbol=_modal(
                    [
                        baseline[seed].trends[label]["symbol"]
                        for seed in paired_seeds
                    ]
                ),
                counterfactual_symbol=_modal(
                    [
                        counterfactual[seed].trends[label]["symbol"]
                        for seed in paired_seeds
                    ]
                ),
            )
            for label in baseline[paired_seeds[0]].trends
        )
        obs.counter("whatif.detections").inc(
            sum(1 for v in verdicts if v.first_detection_week is not None)
        )
        reference = baseline[paired_seeds[0]]
        return DetectionReport(
            intervention=pairing.intervention.to_document(pairing.strength),
            sweep_id=SweepLedger(spec, root=ledger_root).sweep_id,
            spec_fingerprint=spec_fingerprint(spec),
            baseline_fingerprints={
                seed: baseline[seed].config_fingerprint
                for seed in paired_seeds
            },
            seeds=paired_seeds,
            window=reference.window,
            n_weeks=reference.n_weeks,
            complete=len(baseline) + len(counterfactual) == n_cells
            and set(baseline) == set(counterfactual) == set(pairing.seeds),
            verdicts=verdicts,
        )


def _divergence_summary(
    spec: ScenarioSpec, ledger_root: str | Path | None
) -> dict[str, Any] | None:
    """Running mid-run divergence digest, or ``None`` before any seed
    has both legs — the incremental-progress payload."""
    baseline, counterfactual, _ = _paired_results(spec, ledger_root)
    baseline_weekly = _weekly_by_seed(baseline)
    counterfactual_weekly = _weekly_by_seed(counterfactual)
    paired_seeds = sorted(set(baseline_weekly) & set(counterfactual_weekly))
    if not paired_seeds:
        return None
    series = detect(
        {seed: baseline_weekly[seed] for seed in paired_seeds},
        {seed: counterfactual_weekly[seed] for seed in paired_seeds},
    )
    detections = {
        label: verdict.first_detection_week
        for label, verdict in series.items()
        if verdict.first_detection_week is not None
    }
    return {
        "paired_seeds": [int(seed) for seed in paired_seeds],
        "n_detected": len(detections),
        "first_detection_weeks": detections,
        "max_abs_effect": max(
            (verdict.max_abs_effect for verdict in series.values()),
            default=0.0,
        ),
    }
