"""The sweep run ledger: durability, tolerance, and identity checks.

These tests never simulate — they fabricate cell records directly and
exercise the JSONL parsing rules: torn trailing lines are ignored,
duplicate indices keep the first record, a record whose config
fingerprint does not match its cell is skipped, and a header written for
a different spec refuses to resume.
"""

from __future__ import annotations

import datetime as dt
import json

import pytest

from repro.core.study import StudyConfig
from repro.net.plan import PlanConfig
from repro.sweep import LedgerMismatch, ScenarioSpec, SweepLedger, expand, seed_axis
from repro.util.calendar import StudyCalendar

BASE = StudyConfig(
    seed=0,
    calendar=StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 4, 23)),
    plan=PlanConfig(seed=0, tail_as_count=60),
)

SPEC = ScenarioSpec(name="ledger-test", base=BASE, axes=(seed_axis((0, 1)),))
CELLS = expand(SPEC)


def _cell_payload(index: int) -> dict:
    return {
        "index": index,
        "cell_id": CELLS[index].cell_id,
        "labels": {"seed": str(index)},
        "config_fingerprint": CELLS[index].config_fingerprint,
        "elapsed_s": 1.5,
        "result": {"index": index, "marker": f"cell-{index}"},
    }


def _ledger(tmp_path) -> SweepLedger:
    return SweepLedger(SPEC, root=tmp_path)


class TestRoundTrip:
    def test_empty_ledger_reads_empty(self, tmp_path):
        state = _ledger(tmp_path).read()
        assert state.header is None
        assert state.cells == {}
        assert state.completed == set()

    def test_header_and_cells_round_trip(self, tmp_path):
        ledger = _ledger(tmp_path)
        ledger.write_header()
        for index in (0, 1):
            ledger.append_cell(**_cell_payload(index))
        state = ledger.read()
        assert state.header["sweep_id"] == ledger.sweep_id
        assert state.header["n_cells"] == 2
        assert state.completed == {0, 1}
        assert state.cells[1]["result"]["marker"] == "cell-1"

    def test_ledger_lives_under_sweeps_root(self, tmp_path):
        ledger = _ledger(tmp_path)
        assert ledger.path == tmp_path / "sweeps" / ledger.sweep_id / "ledger.jsonl"
        assert ledger.manifest_path(3).name == "cell-003.json"


class TestTolerance:
    def test_torn_trailing_line_is_ignored(self, tmp_path):
        ledger = _ledger(tmp_path)
        ledger.write_header()
        ledger.append_cell(**_cell_payload(0))
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "cell", "index": 1, "resu')  # killed mid-append
        state = ledger.read()
        assert state.completed == {0}

    def test_torn_line_truncates_everything_after(self, tmp_path):
        """A torn line mid-file (disk corruption, not a clean kill) must
        not resurrect records past the tear."""
        ledger = _ledger(tmp_path)
        ledger.write_header()
        ledger.append_cell(**_cell_payload(0))
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write("{broken\n")
        ledger.append_cell(**_cell_payload(1))
        assert ledger.read().completed == {0}

    def test_duplicate_index_keeps_first_record(self, tmp_path):
        ledger = _ledger(tmp_path)
        ledger.write_header()
        ledger.append_cell(**_cell_payload(0))
        second = _cell_payload(0)
        second["result"]["marker"] = "imposter"
        ledger.append_cell(**second)
        state = ledger.read()
        assert state.cells[0]["result"]["marker"] == "cell-0"

    def test_record_not_matching_a_cell_is_skipped(self, tmp_path):
        """A record with another config fingerprint (an older cache
        schema, an edited file) or an index the spec does not have never
        counts; the first record matching the cell wins."""
        ledger = _ledger(tmp_path)
        ledger.write_header()
        stale = _cell_payload(0)
        stale["config_fingerprint"] = "0" * 64
        stale["result"]["marker"] = "stale"
        ledger.append_cell(**stale)
        foreign = _cell_payload(1)
        foreign["index"] = 2
        ledger.append_cell(**foreign)
        ledger.append_cell(**_cell_payload(0))
        state = ledger.read()
        assert state.completed == {0}
        assert state.cells[0]["result"]["marker"] == "cell-0"

    def test_blank_lines_skipped(self, tmp_path):
        ledger = _ledger(tmp_path)
        ledger.write_header()
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        ledger.append_cell(**_cell_payload(0))
        assert ledger.read().completed == {0}


class TestIdentity:
    def test_foreign_spec_fingerprint_refuses_resume(self, tmp_path):
        ledger = _ledger(tmp_path)
        ledger.write_header()
        header = json.loads(ledger.path.read_text().splitlines()[0])
        header["spec_fingerprint"] = "0" * 64
        ledger.path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        with pytest.raises(LedgerMismatch, match="different"):
            ledger.read()

    def test_older_schema_refuses_resume(self, tmp_path):
        ledger = _ledger(tmp_path)
        ledger.write_header()
        header = json.loads(ledger.path.read_text().splitlines()[0])
        header["schema"] = 0
        ledger.path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        with pytest.raises(LedgerMismatch):
            ledger.read()


class TestReset:
    def test_reset_drops_ledger_and_manifests(self, tmp_path):
        ledger = _ledger(tmp_path)
        ledger.write_header()
        ledger.append_cell(**_cell_payload(0))
        ledger.cells_dir.mkdir(parents=True, exist_ok=True)
        ledger.manifest_path(0).write_text("{}", encoding="utf-8")
        ledger.reset()
        assert not ledger.path.exists()
        assert not ledger.manifest_path(0).exists()
        assert ledger.read().completed == set()

    def test_reset_on_missing_dir_is_a_noop(self, tmp_path):
        _ledger(tmp_path).reset()
