"""The sweep scheduler: resume, execute, aggregate.

:func:`run_sweep` is the one entry point and the only writer of the run
ledger (:mod:`repro.sweep.ledger`).  It takes the
:class:`~repro.sweep.ledger.SweepLedger` that owns a sweep's cells,
settles the cells the ledger already holds as hits, and hands the rest
to an *executor*:

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

import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro import obs
from repro.core.study import Study
from repro.sweep.ledger import SweepLedger
from repro.sweep.report import CellResult, SweepReport, extract_cell
from repro.sweep.spec import SweepCell
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


def sweep_provenance(ledger: SweepLedger, cell_index: int | None = None) -> dict:
    """The manifest provenance block: sweep id, cell index, spec print."""
    return {
        "sweep_id": ledger.sweep_id,
        "cell_index": cell_index,
        "spec_fingerprint": ledger.spec_fingerprint,
    }


def run_cell(
    cell: SweepCell,
    *,
    jobs: int | None = 1,
    cache: bool = True,
    cache_dir: str | Path | None = None,
) -> CellResult:
    """Execute one cell: simulate, extract."""
    study = Study(cell.config, jobs=jobs, cache=cache, cache_dir=cache_dir)
    study.observations
    return extract_cell(study, cell)


def _execute_inline(
    cells: Iterator[SweepCell],
    stop: Callable[[], bool],
    *,
    ledger: SweepLedger,
    jobs: int | None,
    cache: bool,
    cache_dir: str | Path | None,
) -> Iterator[Settled]:
    """The default executor: run each cell here, one after another.

    Cells are pulled one at a time, so ``run_sweep`` appends each result
    (and polls ``stop``) before the next cell starts; ``stop`` itself
    needs no second poll here.  ``run_cell`` is read from this module at
    each call, so a wrapper bound to it reaches every cell.
    """
    for cell in cells:
        started = time.perf_counter()
        with obs.collecting() as registry, obs.tracing() as tracer:
            with obs.span("sweep.cell"):
                result = run_cell(cell, jobs=jobs, cache=cache, cache_dir=cache_dir)
            snapshot, tree = registry.snapshot(), tracer.tree()
        obs.absorb(snapshot, tree)
        elapsed = time.perf_counter() - started
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
    ledger: SweepLedger,
    *,
    jobs: int | None = 1,
    resume: bool = True,
    cache: bool = True,
    cache_dir: str | Path | None = None,
    should_stop: Callable[[], bool] | None = None,
    on_cell: Callable[[SweepCell, str, dict[str, Any]], None] | None = None,
    executor: CellExecutor | None = None,
    log: Log = _silent,
) -> SweepOutcome:
    """Run (or resume) a sweep to completion and aggregate it.

    ``ledger`` names the sweep and where its records live
    (``SweepLedger(spec, root=...)``).  ``resume=True`` replays
    completed cells from the ledger without recomputation;
    ``resume=False`` resets the ledger first.  ``jobs`` shards each
    cell's simulation.  ``cache``/``cache_dir`` are forwarded to each
    cell's :class:`~repro.core.study.Study`.

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

    ``on_cell`` is called after every settled cell with the cell, how
    it settled (``"executed"`` or ``"ledger-hit"``) and its ledger
    record in the form :meth:`~repro.sweep.ledger.SweepLedger.read`
    returns it (a hit's record as read, an executed cell's as written)
    — the seam long-running callers (the counterfactual engine, the
    service's incremental job status) use to publish progress without
    re-reading the ledger.  Hook failures propagate: a caller's progress
    callback is part of the run.
    """
    cells = ledger.cells
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
            ledger.write_header()
        log(
            f"sweep {ledger.sweep_id}: {len(cells)} cells, "
            f"{len(state.cells)} already in ledger, "
            f"jobs {effective_jobs(jobs, None)}"
        )
        for cell in cells:
            if stop():
                return
            if cell.index in state.cells:
                outcome.ledger_hits.append(cell.index)
                obs.counter("sweep.cells.ledger_hits").inc()
                log(f"cell {cell.index} [{cell.describe()}]: ledger hit")
                if on_cell is not None:
                    on_cell(cell, "ledger-hit", state.cells[cell.index])
                continue
            yield cell

    if executor is None:
        executor = partial(
            _execute_inline,
            ledger=ledger,
            jobs=jobs,
            cache=cache,
            cache_dir=cache_dir,
        )
    with obs.span("sweep.run"):
        obs.gauge("sweep.cells").set(len(cells))
        for cell, result, elapsed in executor(unsettled(), stop):
            record = ledger.append_cell(
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
                on_cell(cell, "executed", record)
    outcome.report = load_report(ledger)
    return outcome


def sweep_status(ledger: SweepLedger) -> dict:
    """Ledger-only progress view (never simulates)."""
    state = ledger.read()
    return {
        "sweep_id": ledger.sweep_id,
        "spec_fingerprint": ledger.spec_fingerprint,
        "ledger_path": str(ledger.path),
        "n_cells": len(ledger.cells),
        "done": sorted(state.cells),
        "pending": [
            cell.index for cell in ledger.cells if cell.index not in state.cells
        ],
        "cells": [
            {
                "index": cell.index,
                "cell_id": cell.cell_id,
                "labels": cell.label_map,
                "status": "done" if cell.index in state.cells else "pending",
                "elapsed_s": state.cells.get(cell.index, {}).get("elapsed_s"),
            }
            for cell in ledger.cells
        ],
    }


def load_report(ledger: SweepLedger) -> SweepReport:
    """Build the sweep report from the ledger alone.

    Every report — mid-flight, post-resume, or after an uninterrupted
    run — comes through here, which is what makes the rendered output
    independent of how the sweep reached completion.
    """
    state = ledger.read()
    return SweepReport(
        name=ledger.spec.name,
        sweep_id=ledger.sweep_id,
        spec_fingerprint=ledger.spec_fingerprint,
        n_cells=len(ledger.cells),
        cells=[
            CellResult.from_dict(state.cells[index]["result"])
            for index in sorted(state.cells)
        ],
    )
