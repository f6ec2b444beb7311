"""The sweep scheduler: execution, resume, and the determinism contract.

The headline guarantee under test: the rendered sweep report is
bit-identical for any ``jobs`` value and any interrupt/resume history.
The kill test runs a sweep in a subprocess, SIGKILLs it mid-flight,
resumes in-process with a different ``jobs``, and requires (a) every
previously-completed cell to be a ledger hit with its record unchanged,
and (b) the final report to match an uninterrupted run byte for byte.
"""

from __future__ import annotations

import datetime as dt
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.study import StudyConfig
from repro.net.plan import PlanConfig
from repro.sweep import (
    ScenarioSpec,
    SweepLedger,
    load_report,
    run_sweep,
    seed_axis,
    sweep_status,
)
from repro.util.calendar import StudyCalendar

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
_TESTS_DIR = str(Path(__file__).resolve().parent)

#: ~20 weeks, tiny plan and rates: each cell simulates in well under a
#: second, which both keeps tier-1 fast and gives the kill test a wide
#: window between ledger appends.
_CALENDAR = StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 5, 21))


def _base(seed: int = 0) -> StudyConfig:
    return StudyConfig(
        seed=seed,
        calendar=_CALENDAR,
        dp_per_day=12.0,
        ra_per_day=9.0,
        plan=PlanConfig(seed=seed, tail_as_count=60),
    )


SPEC2 = ScenarioSpec(name="run-test", base=_base(), axes=(seed_axis((0, 1)),))

#: The kill-test ensemble; the subprocess child imports this by name, so
#: both processes expand the exact same spec (same fingerprint, same
#: ledger directory).
SPEC4 = ScenarioSpec(
    name="kill-test", base=_base(), axes=(seed_axis((0, 1, 2, 3)),)
)


class TestRunAndResume:
    def test_run_executes_all_then_resumes_from_ledger(self, tmp_path):
        first = run_sweep(SPEC2, jobs=1, sweep_dir=tmp_path)
        assert first.executed == [0, 1]
        assert first.ledger_hits == []
        assert first.report.complete

        second = run_sweep(SPEC2, jobs=1, sweep_dir=tmp_path)
        assert second.executed == []
        assert second.ledger_hits == [0, 1]
        assert second.report.render() == first.report.render()

    def test_resume_false_resets_the_ledger(self, tmp_path):
        run_sweep(SPEC2, jobs=1, sweep_dir=tmp_path)
        fresh = run_sweep(SPEC2, jobs=1, resume=False, sweep_dir=tmp_path)
        assert fresh.executed == [0, 1]
        assert fresh.ledger_hits == []

    def test_report_independent_of_jobs(self, tmp_path):
        serial = run_sweep(SPEC2, jobs=1, sweep_dir=tmp_path / "a")
        sharded = run_sweep(SPEC2, jobs=2, sweep_dir=tmp_path / "b")
        assert serial.report.cells == sharded.report.cells
        assert serial.report.render() == sharded.report.render()

    def test_status_tracks_progress(self, tmp_path):
        before = sweep_status(SPEC2, sweep_dir=tmp_path)
        assert before["done"] == []
        assert before["pending"] == [0, 1]
        run_sweep(SPEC2, jobs=1, sweep_dir=tmp_path)
        after = sweep_status(SPEC2, sweep_dir=tmp_path)
        assert after["done"] == [0, 1]
        assert after["pending"] == []
        assert all(cell["status"] == "done" for cell in after["cells"])

    def test_per_cell_manifests_carry_provenance(self, tmp_path):
        import json

        from repro.obs import validate_manifest

        outcome = run_sweep(SPEC2, jobs=1, sweep_dir=tmp_path)
        schema = json.loads(
            (Path(__file__).parent / "manifest_schema.json").read_text()
        )
        for index in (0, 1):
            manifest = json.loads(
                outcome.ledger.manifest_path(index).read_text()
            )
            assert validate_manifest(manifest, schema) == []
            assert manifest["sweep"] == {
                "sweep_id": outcome.sweep_id,
                "cell_index": index,
                "spec_fingerprint": outcome.ledger.spec_fingerprint,
            }

    def test_partial_report_from_ledger_only(self, tmp_path):
        run_sweep(SPEC2, jobs=1, sweep_dir=tmp_path)
        # Drop one record to fake a half-done sweep.
        ledger = SweepLedger(SPEC2, root=tmp_path)
        lines = ledger.path.read_text().splitlines()
        ledger.path.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
        report = load_report(SPEC2, sweep_dir=tmp_path)
        assert not report.complete
        assert len(report.cells) == 1
        assert "PARTIAL" in report.render()


class TestStopAndResume:
    """The ``should_stop`` drain contract: a stopped sweep's ledger
    resumes without re-running any completed cell."""

    def test_stop_then_resume_never_recomputes_completed_cells(self, tmp_path):
        calls = iter([False, True])
        stopped = run_sweep(
            SPEC2,
            jobs=1,
            sweep_dir=tmp_path,
            should_stop=lambda: next(calls),
        )
        assert stopped.stopped
        assert stopped.executed == [0]
        assert stopped.ledger_hits == []
        assert not stopped.report.complete

        record_before = SweepLedger(SPEC2, root=tmp_path).read().cells[0]

        resumed = run_sweep(SPEC2, jobs=1, resume=True, sweep_dir=tmp_path)
        assert not resumed.stopped
        # The cell completed before the stop replays as a ledger hit —
        # the stop poll sits before the ledger check, so nothing that
        # reached the ledger is ever simulated again.
        assert resumed.ledger_hits == [0]
        assert resumed.executed == [1]
        assert resumed.report.complete

        # The pre-stop record survived the resume byte-for-byte, and the
        # stitched report matches an uninterrupted run exactly.
        assert SweepLedger(SPEC2, root=tmp_path).read().cells[0] == record_before
        baseline = run_sweep(SPEC2, jobs=1, sweep_dir=tmp_path / "baseline")
        assert resumed.report.render() == baseline.report.render()
        assert resumed.report.cells == baseline.report.cells

    def test_stop_before_first_cell_runs_nothing(self, tmp_path):
        stopped = run_sweep(
            SPEC2, jobs=1, sweep_dir=tmp_path, should_stop=lambda: True
        )
        assert stopped.stopped
        assert stopped.executed == []
        assert stopped.ledger_hits == []

    def test_on_cell_reports_how_each_cell_settled(self, tmp_path):
        events: list[tuple[int, str]] = []
        run_sweep(
            SPEC2,
            jobs=1,
            sweep_dir=tmp_path,
            on_cell=lambda cell, status: events.append((cell.index, status)),
        )
        assert events == [(0, "executed"), (1, "executed")]

        events.clear()
        run_sweep(
            SPEC2,
            jobs=1,
            sweep_dir=tmp_path,
            on_cell=lambda cell, status: events.append((cell.index, status)),
        )
        assert events == [(0, "ledger-hit"), (1, "ledger-hit")]


_CHILD = """
import sys

from test_sweep_run import SPEC4

from repro.sweep import run_sweep

run_sweep(SPEC4, jobs=1, cache=False, sweep_dir=sys.argv[1])
"""


class TestKillAndResume:
    def test_killed_sweep_resumes_with_zero_recomputation(self, tmp_path):
        """Satellite acceptance: kill mid-flight, resume with a different
        ``--jobs``, require ledger hits for everything completed and a
        report bit-identical to an uninterrupted run."""
        sweep_dir = tmp_path / "interrupted"
        sweep_dir.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC_DIR, _TESTS_DIR, env.get("PYTHONPATH")) if p
        )
        ledger = SweepLedger(SPEC4, root=sweep_dir)
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(sweep_dir)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Kill as soon as the first cell lands in the ledger; the
            # remaining cells each take a large fraction of a second
            # (cache=False), so the kill lands mid-sweep.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if child.poll() is not None or ledger.read().completed:
                    break
                time.sleep(0.01)
        finally:
            child.kill()
            child.wait(timeout=60)

        completed_before = ledger.read().completed
        assert completed_before, "child never completed a cell"
        if len(completed_before) == len(SPEC4.axes[0].points):
            pytest.skip("child finished before the kill landed")
        records_before = {
            index: record for index, record in ledger.read().cells.items()
        }

        outcome = run_sweep(SPEC4, jobs=2, resume=True, sweep_dir=sweep_dir)
        assert set(outcome.ledger_hits) == completed_before
        assert set(outcome.executed) == set(range(4)) - completed_before
        assert outcome.executed, "resume had nothing left to do"
        assert outcome.report.complete

        # Completed-cell records survived the resume byte-for-byte.
        records_after = ledger.read().cells
        for index in completed_before:
            assert records_after[index] == records_before[index]

        # The resumed report matches an uninterrupted run exactly.
        baseline = run_sweep(SPEC4, jobs=1, sweep_dir=tmp_path / "baseline")
        assert baseline.report.render() == outcome.report.render()
        assert baseline.report.cells == outcome.report.cells


class TestTornRecord:
    """A kill in the middle of an append tears the ledger's last record.
    A resume must re-run exactly that cell, and its record must read back,
    not vanish behind the torn line."""

    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("torn-baseline")
        return root, run_sweep(SPEC2, jobs=1, sweep_dir=root).report.render()

    @pytest.mark.parametrize("cut", ["1", "middle", "length-1"])
    def test_resume_reruns_only_the_torn_cell(self, finished, tmp_path, cut):
        root, baseline_report = finished
        shutil.copytree(root, tmp_path, dirs_exist_ok=True)
        ledger = SweepLedger(SPEC2, root=tmp_path)
        *head, last = ledger.path.read_bytes().splitlines(keepends=True)
        record = last.rstrip(b"\n")
        keep = {"1": 1, "middle": len(record) // 2, "length-1": len(record) - 1}
        ledger.path.write_bytes(b"".join(head) + record[: keep[cut]])
        assert ledger.read().completed == {0}

        resumed = run_sweep(SPEC2, jobs=1, resume=True, sweep_dir=tmp_path)
        assert resumed.ledger_hits == [0]
        assert resumed.executed == [1]
        assert resumed.report.render() == baseline_report

        again = run_sweep(SPEC2, jobs=1, resume=True, sweep_dir=tmp_path)
        assert again.executed == []
        assert again.report.render() == baseline_report
