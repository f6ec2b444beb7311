"""The sweep scheduler: expand, resume, execute, aggregate.

:func:`run_sweep` is the one entry point and the only writer of the run
ledger (:mod:`repro.sweep.ledger`).  It expands a
:class:`~repro.sweep.spec.ScenarioSpec` into cells, settles the cells
the ledger already holds as hits, and hands the rest to an *executor*:

* inline (the default) runs them here, one after another in cell order
  — each cell is a :class:`~repro.core.study.Study` whose simulation
  runs on the sharded executor (``jobs`` workers via
  :func:`repro.util.parallel.effective_jobs`) behind the
  content-addressed study cache;
* a coordinator daemon passes
  :meth:`repro.service.dist.DistCoordinator.execute`, which leases the
  cells to dist workers and hands back each verified upload as it lands.

Every finished cell is appended to the ledger as soon as the executor
hands it over, so a kill at any point loses only cells still in flight.

Determinism contract: cell order, cell ids, per-cell simulation output,
and the rendered :class:`~repro.sweep.report.SweepReport` are identical
for any ``--jobs`` value, any executor and any interrupt/resume history,
because the report is always built from ledger payloads alone.

Observability: each inline cell runs in its own collection context; its
metrics/span payload is absorbed into the surrounding context (exactly
like shard payloads) and written as a per-cell run manifest carrying
sweep provenance (sweep id, cell index, spec fingerprint).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro import obs
from repro.core.study import Study
from repro.sweep.ledger import SweepLedger
from repro.sweep.report import CellResult, SweepReport, extract_cell
from repro.sweep.spec import ScenarioSpec, SweepCell, expand
from repro.util.parallel import effective_jobs

Log = Callable[[str], None]

#: One finished cell as an executor hands it back: the cell, its
#: :class:`~repro.sweep.report.CellResult` payload, and seconds taken.
Settled = tuple[SweepCell, dict[str, Any], float]

#: Runs the cells the ledger does not hold.  Called with an iterator
#: over those cells — pulling from it polls ``should_stop`` and settles
#: ledger hits — and the stop poll; yields every finished cell, in any
#: order, and ends early once the stop poll answers ``True``.
CellExecutor = Callable[[Iterator[SweepCell], Callable[[], bool]], Iterable[Settled]]


def _silent(_: str) -> None:
    return None


@dataclass
class SweepOutcome:
    """What one ``run_sweep`` invocation did."""

    sweep_id: str
    ledger: SweepLedger
    report: SweepReport | None = None
    executed: list[int] = field(default_factory=list)
    ledger_hits: list[int] = field(default_factory=list)
    #: ``True`` when a ``should_stop`` hook ended the run early; the
    #: ledger stays resumable (re-run with ``resume=True`` to finish).
    stopped: bool = False

    @property
    def n_cells(self) -> int:
        return len(self.executed) + len(self.ledger_hits)


def sweep_provenance(
    spec_or_ledger: ScenarioSpec | SweepLedger, cell_index: int | None = None
) -> dict:
    """The manifest provenance block: sweep id, cell index, spec print."""
    ledger = (
        spec_or_ledger
        if isinstance(spec_or_ledger, SweepLedger)
        else SweepLedger(spec_or_ledger)
    )
    return {
        "sweep_id": ledger.sweep_id,
        "cell_index": cell_index,
        "spec_fingerprint": ledger.spec_fingerprint,
    }


#: Optional per-cell stall (seconds) paid by *every* ``run_cell`` call,
#: serial or distributed.  Models a blocking ingest/fetch phase so that
#: latency-bound sweeps can be benchmarked on hosts whose core count
#: cannot parallelise the compute itself (``make dist-smoke`` uses it to
#: measure lease-pipeline overlap on single-core CI containers).  Unset
#: or invalid means no stall.
CELL_STALL_ENV = "REPRO_SWEEP_CELL_STALL_S"


def _cell_stall_s() -> float:
    raw = os.environ.get(CELL_STALL_ENV, "")
    try:
        return max(0.0, float(raw))
    except ValueError:
        return 0.0


def run_cell(
    cell: SweepCell,
    *,
    jobs: int | None = 1,
    cache: bool | None = None,
    cache_dir: str | Path | None = None,
) -> CellResult:
    """Execute one cell: stall (if configured), simulate, extract."""
    stall = _cell_stall_s()
    if stall:
        time.sleep(stall)
    study = Study(cell.config, jobs=jobs, cache=cache, cache_dir=cache_dir)
    study.observations
    return extract_cell(study, cell)


def _execute_inline(
    cells: Iterator[SweepCell],
    stop: Callable[[], bool],
    *,
    ledger: SweepLedger,
    jobs: int | None,
    cache: bool | None,
    cache_dir: str | Path | None,
    write_manifests: bool,
) -> Iterator[Settled]:
    """The default executor: run each cell here, one after another.

    Cells are pulled one at a time, so ``run_sweep`` appends each result
    (and polls ``stop``) before the next cell starts; ``stop`` itself
    needs no second poll here.
    """
    for cell in cells:
        started = time.perf_counter()
        with obs.collecting() as registry, obs.tracing() as tracer:
            with obs.span("sweep.cell"):
                result = run_cell(cell, jobs=jobs, cache=cache, cache_dir=cache_dir)
            snapshot, tree = registry.snapshot(), tracer.tree()
        obs.absorb(snapshot, tree)
        elapsed = time.perf_counter() - started
        if write_manifests:
            manifest = obs.build_manifest(
                "sweep-cell",
                config=cell.config,
                registry=registry,
                tracer=tracer,
                sweep=sweep_provenance(ledger, cell.index),
            )
            ledger.cells_dir.mkdir(parents=True, exist_ok=True)
            obs.write_manifest(ledger.manifest_path(cell.index), manifest)
        yield cell, result.to_dict(), elapsed


def run_sweep(
    spec: ScenarioSpec,
    *,
    jobs: int | None = 1,
    resume: bool = True,
    cache: bool | None = None,
    cache_dir: str | Path | None = None,
    sweep_dir: str | Path | None = None,
    write_manifests: bool = True,
    should_stop: Callable[[], bool] | None = None,
    on_cell: Callable[[SweepCell, str], None] | None = None,
    executor: CellExecutor | None = None,
    log: Log = _silent,
) -> SweepOutcome:
    """Run (or resume) a sweep to completion and aggregate it.

    ``resume=True`` replays completed cells from the ledger without
    recomputation; ``resume=False`` resets the ledger first.  ``jobs``
    shards each cell's simulation.  ``cache``/``cache_dir`` are
    forwarded to each cell's :class:`~repro.core.study.Study`;
    ``sweep_dir`` overrides where the ledger lives (default: the study
    cache root).

    ``executor`` runs the cells the ledger does not hold.  ``None``
    runs them inline, sequentially in cell order, with a run manifest
    per cell.  A coordinator daemon passes its
    :meth:`~repro.service.dist.DistCoordinator.execute` (bound to the
    job's preset descriptor) instead, and results are appended in
    arrival order.  The report is the same bytes either way.

    ``should_stop`` is polled before each cell is settled (the service
    daemon wires job cancellation and SIGTERM drain to it) and, by a
    waiting executor, between uploads; a ``True`` answer ends the run
    with ``outcome.stopped`` set and the ledger consistent — completed
    cells are never lost, and a later ``resume=True`` run continues
    exactly where this one stopped.

    ``on_cell`` is called after every settled cell with the cell and
    how it settled (``"executed"`` or ``"ledger-hit"``) — the seam
    long-running callers (the counterfactual engine, the service's
    incremental job status) use to publish progress.  Hook failures
    propagate: a caller's progress callback is part of the run.
    """
    cells = expand(spec)
    ledger_root = sweep_dir if sweep_dir is not None else cache_dir
    ledger = SweepLedger(spec, root=ledger_root)
    outcome = SweepOutcome(sweep_id=ledger.sweep_id, ledger=ledger)

    def stop() -> bool:
        if not outcome.stopped and should_stop is not None and should_stop():
            outcome.stopped = True
            log(
                f"sweep {ledger.sweep_id}: stop requested after "
                f"{len(outcome.executed)} executed cells"
            )
        return outcome.stopped

    def unsettled() -> Iterator[SweepCell]:
        # The ledger is read on the executor's first pull, which lets a
        # coordinator claim the sweep id before anything touches it.
        if not resume:
            ledger.reset()
        state = ledger.read()
        if state.header is None:
            ledger.write_header(len(cells))
        log(
            f"sweep {ledger.sweep_id}: {len(cells)} cells, "
            f"{len(state.completed & {c.index for c in cells})} already in ledger, "
            f"jobs {effective_jobs(jobs, None)}"
        )
        for cell in cells:
            if stop():
                return
            record = state.cells.get(cell.index)
            if record is not None:
                if record.get("config_fingerprint") == cell.config_fingerprint:
                    outcome.ledger_hits.append(cell.index)
                    obs.counter("sweep.cells.ledger_hits").inc()
                    log(f"cell {cell.index} [{cell.describe()}]: ledger hit")
                    if on_cell is not None:
                        on_cell(cell, "ledger-hit")
                    continue
                # Defensive: ledger passed fingerprint validation, so a
                # per-cell mismatch means a hand-edited file; recompute.
                log(f"cell {cell.index}: ledger record stale, re-running")
            yield cell

    if executor is None:
        executor = partial(
            _execute_inline,
            ledger=ledger,
            jobs=jobs,
            cache=cache,
            cache_dir=cache_dir,
            write_manifests=write_manifests,
        )
    with obs.span("sweep.run"):
        obs.gauge("sweep.cells").set(len(cells))
        for cell, result, elapsed in executor(unsettled(), stop):
            ledger.append_cell(
                index=cell.index,
                cell_id=cell.cell_id,
                labels=cell.label_map,
                config_fingerprint=cell.config_fingerprint,
                elapsed_s=elapsed,
                result=result,
            )
            outcome.executed.append(cell.index)
            obs.counter("sweep.cells.executed").inc()
            log(
                f"cell {cell.index} [{cell.describe()}]: "
                f"simulated in {elapsed:.1f}s"
            )
            if on_cell is not None:
                on_cell(cell, "executed")
    outcome.report = load_report(spec, sweep_dir=ledger_root)
    return outcome


def sweep_status(
    spec: ScenarioSpec, *, sweep_dir: str | Path | None = None
) -> dict:
    """Ledger-only progress view (never simulates)."""
    cells = expand(spec)
    ledger = SweepLedger(spec, root=sweep_dir)
    state = ledger.read()
    done = sorted(index for index in state.completed if index < len(cells))
    pending = [cell.index for cell in cells if cell.index not in state.completed]
    return {
        "sweep_id": ledger.sweep_id,
        "spec_fingerprint": ledger.spec_fingerprint,
        "ledger_path": str(ledger.path),
        "n_cells": len(cells),
        "done": done,
        "pending": pending,
        "cells": [
            {
                "index": cell.index,
                "cell_id": cell.cell_id,
                "labels": cell.label_map,
                "status": "done" if cell.index in state.completed else "pending",
                "elapsed_s": state.cells.get(cell.index, {}).get("elapsed_s"),
            }
            for cell in cells
        ],
    }


def load_report(
    spec: ScenarioSpec, *, sweep_dir: str | Path | None = None
) -> SweepReport:
    """Build the sweep report from the ledger alone.

    Every report — mid-flight, post-resume, or after an uninterrupted
    run — comes through here, which is what makes the rendered output
    independent of how the sweep reached completion.
    """
    cells = expand(spec)
    ledger = SweepLedger(spec, root=sweep_dir)
    state = ledger.read()
    results = [
        CellResult.from_dict(state.cells[cell.index]["result"])
        for cell in cells
        if cell.index in state.cells
    ]
    return SweepReport(
        name=spec.name,
        sweep_id=ledger.sweep_id,
        spec_fingerprint=ledger.spec_fingerprint,
        n_cells=len(cells),
        cells=results,
    )
