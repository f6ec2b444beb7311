"""The ``whatif`` workload: the sav-adoption pairing, closed loop, one caller.

Each ensemble runs the ``sav-adoption`` intervention on
``small_pinned_config(seed)`` with seeds ``seed``, ``seed+1`` and
``seed+2`` -- six cells of the 69-week window -- through ``run_whatif``
on ``jobs`` workers, in a fresh cache and ledger directory.  It then
re-runs the finished pairing warm: every cell is a ledger hit, and only
the ledger read, the sweep report and the detection report are redone.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import time
from pathlib import Path

from perfbench.common import Deadline, Run, median, tree_peak_rss_mb, work_cpu_s
from perfbench.spans import Tracer, wrapped
from perfbench.study_workload import GOLDEN, check_golden, small_config

INTERVENTION = "sav-adoption"
#: Warm re-runs per ensemble; each is a few tens of milliseconds.
WARM_RUNS = 5


def _report_digest(outcome) -> str | None:
    from repro.core.artifacts import artifact_json_bytes

    if outcome.report is None:
        return None
    return hashlib.sha256(artifact_json_bytes(outcome.report.to_document())).hexdigest()


class WhatifWorkload:
    """Cold and warm what-if ensembles; every report checked."""

    def __init__(self, seed: int, jobs: int, work: Path, run: Run) -> None:
        from repro.counterfactual import WhatifPairing, whatif_preset
        from repro.sweep.spec import expand

        self.seed = seed
        self.jobs = jobs
        self.work = work
        self.run = run
        self.pairing = WhatifPairing(
            intervention=whatif_preset(INTERVENTION).intervention,
            base=small_config(seed),
            seeds=(seed, seed + 1, seed + 2),
        )
        self.cells = expand(self.pairing.spec())
        self.replay_config = small_config(seed)
        self.reference: str | None = None
        self.count = 0
        self.ledger_cells = 0

    def params(self) -> dict:
        calendar = self.pairing.base.calendar
        return {
            "intervention": INTERVENTION,
            "base": "small_pinned_config(seed)",
            "seeds": list(self.pairing.seeds),
            "cells": len(self.cells),
            "window": f"{calendar.start}..{calendar.end}",
            "jobs": self.jobs,
            "callers": 1,
            "golden": GOLDEN if self.seed == 0 else None,
        }

    def setup(self) -> None:
        """Build every cell's models, then fork the pool so workers share them."""
        from repro.util.parallel import models_for, warm_pool

        for cell in self.cells:
            models_for(cell.config)
        warm_pool(self.jobs)

    def _whatif(self, directory: Path):
        from repro.counterfactual import run_whatif

        return run_whatif(self.pairing, jobs=self.jobs, cache_dir=str(directory))

    def ensemble(self, tracer: Tracer | None = None) -> dict[str, list[float]]:
        """One cold and ``WARM_RUNS`` warm runs of the pairing; wall and
        CPU seconds of each (CPU of this process and its pool workers for
        the cold run; of this process alone, the only one busy, for the
        warm ones)."""
        import repro.counterfactual.engine as engine
        import repro.sweep.scheduler as scheduler
        from repro.sweep.ledger import SweepLedger

        directory = self.work / f"ensemble-{self.count}"
        self.count += 1
        gc.collect()
        cpu = work_cpu_s()
        if tracer is None:
            started = time.perf_counter()
            cold = self._whatif(directory)
            cold_s = time.perf_counter() - started
        else:
            with wrapped(tracer, scheduler, "run_cell", "sweep.cell"), wrapped(
                tracer, scheduler, "extract_cell", "sweep.extract"
            ), wrapped(tracer, scheduler, "load_report", "sweep.report"), wrapped(
                tracer, engine, "build_detection_report", "counterfactual.detect"
            ):
                started = time.perf_counter()
                with tracer.span("whatif.run"):
                    cold = self._whatif(directory)
                cold_s = time.perf_counter() - started
        cold_cpu_s = work_cpu_s() - cpu
        n_cells = len(self.cells)
        ledger_cells = len(SweepLedger(self.pairing.spec(), root=directory).read().cells)
        self.ledger_cells = ledger_cells
        self.run.check(
            cold.report is not None
            and cold.report.complete
            and len(cold.sweep.executed) == n_cells
            and ledger_cells == n_cells,
            f"whatif: cold run settled {len(cold.sweep.executed)} cells, "
            f"ledger holds {ledger_cells} of {n_cells}",
        )
        digest = _report_digest(cold)
        if self.reference is None:
            self.reference = digest
            if self.seed == 0:
                from repro.core.study import Study

                baseline = Study(small_config(0), jobs=self.jobs, cache_dir=str(directory))
                check_golden(baseline, GOLDEN, self.run, "whatif baseline leg")
        self.run.check(
            digest == self.reference,
            "whatif: detection report bytes differ from the first ensemble",
        )

        warm_s, warm_cpu_s = [], []
        for _ in range(WARM_RUNS):
            gc.collect()
            started, cpu = time.perf_counter(), time.process_time()
            warm = self._whatif(directory)
            warm_s.append(time.perf_counter() - started)
            warm_cpu_s.append(time.process_time() - cpu)
            self.run.check(
                not warm.sweep.executed
                and len(warm.sweep.ledger_hits) == n_cells
                and _report_digest(warm) == self.reference,
                "whatif: warm re-run recomputed cells or changed the report",
            )
        shutil.rmtree(directory, ignore_errors=True)
        return {
            "cold": [cold_s],
            "cold_cpu": [cold_cpu_s],
            "warm": warm_s,
            "warm_cpu": warm_cpu_s,
        }

    def measure(self, seconds: float) -> None:
        samples: dict[str, list[float]] = {}
        deadline = Deadline(seconds)
        while deadline.more():
            started = time.perf_counter()
            for key, values in self.ensemble().items():
                samples.setdefault(key, []).extend(values)
            deadline.done(time.perf_counter() - started)
        cells = len(self.cells)
        self.run.metric("cold_cpu_s", median(samples["cold_cpu"]) / cells, "s")
        self.run.metric("warm_cpu_ms", median(samples["warm_cpu"]) * 1e3, "ms")
        self.run.note("cells_per_s", cells / median(samples["cold"]), "cells/s", len(samples["cold"]))
        self.run.note("warm_whatif_s", median(samples["warm"]), "s", len(samples["warm"]))

    def unit(self, tracer: Tracer | None) -> float:
        """The traced run's unit: one ensemble, layer calls wrapped."""
        times = self.ensemble(tracer)
        return sum(times["cold"]) + sum(times["warm"])

    def layer_notes(self, tracer: Tracer) -> None:
        spans = tracer.spans
        runs = [s for s in spans if s["name"] == "whatif.run"]
        overhead = []
        for outer in runs:
            inside = [s for s in spans if s["op"] == outer["op"]]
            cells = sum(s["end"] - s["start"] for s in inside if s["name"] == "sweep.cell")
            detect = sum(
                s["end"] - s["start"] for s in inside if s["name"] == "counterfactual.detect"
            )
            overhead.append(outer["end"] - outer["start"] - cells - detect)
        for name in ("sweep.cell", "sweep.extract", "sweep.report", "counterfactual.detect"):
            durations = tracer.durations(name)
            self.run.note(f"{name}_s", median(durations), "s", len(durations))
        self.run.note("sweep.overhead_s", median(overhead), "s", len(overhead))
        self.run.note("sweep.ledger_cells", self.ledger_cells, "count", len(runs))

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(os.getpid())

    def close(self) -> None:
        """Nothing to stop: the pool is shut down at interpreter exit."""
