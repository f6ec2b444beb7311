"""The counterfactual subsystem: specs, pairings, engine, CLI.

The structural claim under test throughout: a zero-delta intervention
resolves to *no* overrides, so both legs of the pairing share one config
fingerprint — the same cache entry, byte-identical feeds — while any
real delta diverges only the observatories its paths touch (common
random numbers keep every other stream identical).
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.cache import config_fingerprint
from repro.core.golden import small_pinned_config
from repro.core.study import StudyConfig
from repro.counterfactual import (
    InterventionOp,
    InterventionSpec,
    WHATIF_PRESETS,
    WhatifPairing,
    WhatifPreset,
    build_detection_report,
    preset_names,
    run_whatif,
    scale_op,
    set_op,
    shift_op,
    validate_detection_report,
    validate_intervention,
    whatif_preset,
)
from repro.counterfactual.engine import _divergence_summary
from repro.net.plan import PlanConfig
from repro.obs import load_manifest, validate_manifest
from repro.observatories.tuning import ObservatoryTuning
from repro.scenarios.config import BooterTakedownScenario, ScenarioConfig
from repro.sweep.ledger import SweepLedger
from repro.sweep.scheduler import load_report
from repro.sweep.spec import apply_overrides, expand
from repro.util.calendar import StudyCalendar


def _base(seed: int = 0, weeks: int = 16, scenario=None) -> StudyConfig:
    start = dt.date(2019, 1, 1)
    return StudyConfig(
        seed=seed,
        calendar=StudyCalendar(start, start + dt.timedelta(days=weeks * 7)),
        dp_per_day=12.0,
        ra_per_day=9.0,
        plan=PlanConfig(seed=seed, tail_as_count=60),
        scenario=scenario,
    )


#: A one-op intervention that touches only Netscout's reporting line —
#: the cheapest real divergence (all other observatories stay exactly 0).
TINY = InterventionSpec(
    name="tiny-floor",
    title="Netscout floor tripled",
    anchor="paper §5",
    description="test-size severity floor shift",
    ops=(scale_op("tuning.netscout_severity_floor_scale", 3.0),),
)


def _tiny_preset() -> WhatifPreset:
    return WhatifPreset(intervention=TINY, base=_base, seeds=(0,))


class TestInterventionSpec:
    def test_op_validation(self):
        with pytest.raises(ValueError, match="op must be one of"):
            InterventionOp(op="mul", path="dp_per_day", value=2.0)
        with pytest.raises(ValueError, match="malformed field path"):
            InterventionOp(op="set", path="sav..ramp", value=1)
        with pytest.raises(ValueError, match="numeric operand"):
            InterventionOp(op="scale", path="dp_per_day", value="big")
        with pytest.raises(ValueError, match="must be positive"):
            scale_op("dp_per_day", -2.0)

    def test_spec_validation(self):
        op = scale_op("dp_per_day", 2.0)
        with pytest.raises(ValueError, match="needs a name"):
            InterventionSpec(name="", title="t", anchor="a", description="d", ops=(op,))
        with pytest.raises(ValueError, match="no ops"):
            InterventionSpec(name="x", title="t", anchor="a", description="d", ops=())
        with pytest.raises(ValueError, match="duplicate op paths"):
            InterventionSpec(
                name="x", title="t", anchor="a", description="d", ops=(op, op)
            )

    def test_unknown_paths_fail_loudly(self):
        base = _base()
        spec = InterventionSpec(
            name="x", title="t", anchor="a", description="d",
            ops=(scale_op("no_such_field", 2.0),),
        )
        with pytest.raises(ValueError, match="unknown field 'no_such_field'"):
            spec.overrides(base)
        spec = InterventionSpec(
            name="x", title="t", anchor="a", description="d",
            ops=(scale_op("tuning.no_such_knob", 2.0),),
        )
        with pytest.raises(ValueError, match="unknown tuning field"):
            spec.overrides(base)
        spec = InterventionSpec(
            name="x", title="t", anchor="a", description="d",
            ops=(shift_op("scenario.booter.takedown_week", -8.0),),
        )
        with pytest.raises(ValueError, match="is None on the base config"):
            spec.overrides(_base(scenario=None))

    def test_strength_interpolates_scale_and_shift(self):
        base = _base(
            scenario=ScenarioConfig(
                booter=BooterTakedownScenario(takedown_week=20)
            )
        )
        spec = InterventionSpec(
            name="x", title="t", anchor="a", description="d",
            ops=(
                scale_op("dp_per_day", 2.0),
                shift_op("scenario.booter.takedown_week", -8.0),
            ),
        )
        full = spec.overrides(base, strength=1.0)
        assert full["dp_per_day"] == pytest.approx(24.0)
        assert full["scenario.booter.takedown_week"] == 12
        half = spec.overrides(base, strength=0.5)
        assert half["dp_per_day"] == pytest.approx(18.0)
        # Week indices stay ints: -8.0 * 0.5 shifts 20 -> 16 exactly.
        assert half["scenario.booter.takedown_week"] == 16
        assert isinstance(half["scenario.booter.takedown_week"], int)
        with pytest.raises(ValueError, match="strength must be >= 0"):
            spec.overrides(base, strength=-0.1)

    def test_zero_strength_is_structurally_zero_delta(self):
        base = _base()
        assert TINY.overrides(base, strength=0.0) == {}
        zero = apply_overrides(base, TINY.overrides(base, 0.0))
        assert zero is base
        assert config_fingerprint(zero) == config_fingerprint(base)

    def test_identity_ops_are_dropped(self):
        base = _base()
        spec = InterventionSpec(
            name="noop", title="t", anchor="a", description="d",
            ops=(scale_op("dp_per_day", 1.0), shift_op("ra_per_day", 0.0)),
        )
        assert spec.overrides(base, strength=1.0) == {}
        assert apply_overrides(base, spec.overrides(base)) is base

    def test_tuning_ops_collapse_into_one_override(self):
        base = _base()
        spec = InterventionSpec(
            name="x", title="t", anchor="a", description="d",
            ops=(
                scale_op("tuning.ixp_ra_threshold_scale", 0.25),
                scale_op("tuning.ixp_dp_threshold_scale", 0.5),
            ),
        )
        resolved = spec.overrides(base)
        assert set(resolved) == {"tuning"}
        tuning = resolved["tuning"]
        assert isinstance(tuning, ObservatoryTuning)
        assert tuning.ixp_ra_threshold_scale == pytest.approx(0.25)
        assert tuning.ixp_dp_threshold_scale == pytest.approx(0.5)
        assert tuning.netscout_severity_floor_scale == 1.0

    def test_tuning_ops_reject_pretuned_base(self):
        base = _base()
        tuned = apply_overrides(base, TINY.overrides(base))
        assert tuned.tuning is not None
        with pytest.raises(ValueError, match="tuning=None"):
            TINY.overrides(tuned)

    def test_document_round_trip_validates(self):
        document = TINY.to_document(strength=0.5)
        assert validate_intervention(document) == []
        assert document["strength"] == 0.5
        assert document["ops"][0]["path"] == "tuning.netscout_severity_floor_scale"
        assert validate_intervention({"name": "x"}) != []


class TestPairing:
    def test_pairing_validation(self):
        with pytest.raises(ValueError, match="at least one seed"):
            WhatifPairing(intervention=TINY, base=_base(), seeds=())
        with pytest.raises(ValueError, match="duplicate seeds"):
            WhatifPairing(intervention=TINY, base=_base(), seeds=(0, 0))
        with pytest.raises(ValueError, match="tuning=None"):
            WhatifPairing(
                intervention=TINY,
                base=apply_overrides(_base(), TINY.overrides(_base())),
            )

    def test_zero_delta_pairing_shares_one_fingerprint(self):
        pairing = WhatifPairing(intervention=TINY, base=_base(), strength=0.0)
        assert pairing.zero_delta
        cells = expand(pairing.spec())
        assert len(cells) == 2
        # Both legs resolve to the identical config — the same cache
        # entry, hence byte-identical feeds.
        assert cells[0].config_fingerprint == cells[1].config_fingerprint

    def test_full_strength_pairing_diverges_only_the_counterfactual_leg(self):
        base = _base()
        pairing = WhatifPairing(intervention=TINY, base=base, seeds=(0, 1))
        cells = expand(pairing.spec())
        by_label = {
            (cell.label_map["seed"], cell.label_map["leg"]): cell
            for cell in cells
        }
        assert len(by_label) == 4
        # Each baseline leg is the plain study at its seed.
        assert by_label[("0", "baseline")].config_fingerprint == config_fingerprint(base)
        assert (
            by_label[("0", "baseline")].config_fingerprint
            != by_label[("0", "counterfactual")].config_fingerprint
        )

    def test_presets_all_expand_and_resolve(self):
        assert preset_names() == [
            "sav-adoption",
            "takedown-earlier",
            "blackholing-aggressive",
            "severity-floor",
        ]
        for name in preset_names():
            pairing = whatif_preset(name)
            assert not pairing.zero_delta
            assert whatif_preset(name, strength=0.0).zero_delta
            cells = expand(pairing.spec())
            assert len(cells) == 2 * len(pairing.seeds)
            assert validate_intervention(
                pairing.intervention.to_document(pairing.strength)
            ) == []

    def test_sav_baseline_leg_is_the_pinned_golden_config(self):
        """The CRN anchor the smoke target asserts: the sav-adoption
        baseline leg at seed 0 IS the seed0-small golden study."""
        pairing = whatif_preset("sav-adoption")
        cells = expand(pairing.spec())
        baseline_cells = {
            cell.label_map["seed"]: cell
            for cell in cells
            if cell.label_map["leg"] == "baseline"
        }
        assert baseline_cells["0"].config_fingerprint == config_fingerprint(
            small_pinned_config(0)
        )

    def test_unknown_preset_names_the_known_ones(self):
        with pytest.raises(KeyError, match="sav-adoption"):
            whatif_preset("nope")

    def test_preset_fingerprint_is_pinned(self):
        """The fingerprint names the pairing's ledger."""
        assert whatif_preset("takedown-earlier").fingerprint() == (
            "4cf44e176bbc94dd4dc56dab5bc8adeb5a55e1c39e88c52d736f4ab0fcd30939"
        )


class TestEngine:
    def test_run_reports_and_validates(self, tmp_path):
        events = []
        outcome = run_whatif(
            WhatifPairing(intervention=TINY, base=_base()),
            cache_dir=tmp_path,
            on_progress=events.append,
        )
        assert not outcome.stopped
        report = outcome.report
        assert report is not None
        assert report.complete
        assert report.seeds == (0,)

        # Progress: one payload per settled cell, divergence appearing
        # once the seed has both legs.
        assert [event["cells_done"] for event in events] == [1, 2]
        assert events[0]["divergence"] is None
        assert events[-1]["divergence"] is not None
        assert events[-1]["executed"] == 2
        assert events[-1]["n_cells"] == 2

        # CRN isolation: the floor shift touches Netscout only; every
        # other observatory's weekly effect is exactly zero.
        for verdict in report.verdicts:
            if not verdict.label.startswith("Netscout"):
                assert verdict.divergence.max_abs_effect == 0.0
                assert verdict.first_detection_week is None
        netscout = [
            v for v in report.verdicts if v.label.startswith("Netscout")
        ]
        assert netscout
        assert any(v.divergence.max_abs_effect > 0 for v in netscout)

        document = report.to_document()
        assert validate_detection_report(document) == []
        labels = [entry["label"] for entry in document["observatories"]]
        assert len(labels) == len(set(labels))

        rendered = report.render()
        assert "whatif detection report: tiny-floor" in rendered
        assert "trend symbol" in rendered

    def test_zero_delta_run_never_detects(self, tmp_path):
        outcome = run_whatif(
            WhatifPairing(intervention=TINY, base=_base(), strength=0.0),
            cache_dir=tmp_path,
        )
        report = outcome.report
        assert report.complete
        # Identical legs: one cache entry, one executed cell... per
        # fingerprint; the second cell of the pair replays the cached
        # study, and no observatory ever leaves the noise band.
        for verdict in report.verdicts:
            assert verdict.divergence.max_abs_effect == 0.0
            assert verdict.first_detection_week is None
            assert not verdict.flipped
        assert report.detected() == []

    def test_warm_run_expands_once_and_parses_the_ledger_twice(
        self, tmp_path, monkeypatch
    ):
        """A warm re-run reads the ledger once to settle its hits and once
        for the report, and expands the spec once; the detection report
        reduces the sweep report and the progress hook the records the
        first read settled, so neither reads the ledger again."""
        import repro.sweep.spec as spec_module

        pairing = WhatifPairing(intervention=TINY, base=_base(), seeds=(0, 1))
        run_whatif(pairing, cache_dir=tmp_path)

        reads, fingerprints = [], []
        read, fingerprint = SweepLedger.read, spec_module.config_fingerprint

        def counted_read(ledger):
            reads.append(ledger.sweep_id)
            return read(ledger)

        def counted_fingerprint(config):
            fingerprints.append(config)
            return fingerprint(config)

        monkeypatch.setattr(SweepLedger, "read", counted_read)
        monkeypatch.setattr(spec_module, "config_fingerprint", counted_fingerprint)
        events = []
        warm = run_whatif(pairing, cache_dir=tmp_path, on_progress=events.append)
        assert warm.sweep.ledger_hits == [0, 1, 2, 3]
        assert warm.report.complete
        assert [event["cells_done"] for event in events] == [1, 2, 3, 4]
        assert len(reads) == 2
        # expand() fingerprints each of the four cells once.
        assert len(fingerprints) == 4

    def test_stop_then_resume_completes_the_pairing(self, tmp_path):
        calls = iter([False, True])
        pairing = WhatifPairing(intervention=TINY, base=_base())
        stopped = run_whatif(
            pairing, cache_dir=tmp_path, should_stop=lambda: next(calls)
        )
        assert stopped.stopped
        assert stopped.sweep.executed == [0]
        # One leg in the ledger: nothing to compare yet.
        assert stopped.report is None
        with pytest.raises(ValueError, match="no seed has both legs"):
            build_detection_report(pairing, load_report(stopped.sweep.ledger))

        # Seed 0's baseline is a ledger hit and its counterfactual leg
        # runs: the progress digest pairs the record as read with the
        # record as written, and matches a full read of the ledger.
        events = []
        resumed = run_whatif(pairing, cache_dir=tmp_path, on_progress=events.append)
        assert not resumed.stopped
        assert resumed.sweep.ledger_hits == [0]
        assert resumed.sweep.executed == [1]
        assert resumed.report is not None
        assert resumed.report.complete
        assert [event["cells_done"] for event in events] == [1, 2]
        assert events[-1]["divergence"] is not None
        assert events[-1]["divergence"] == _divergence_summary(
            load_report(resumed.sweep.ledger).cells
        )

        # `whatif report` works from the ledger alone, byte-identically.
        from repro.core.artifacts import artifact_json_bytes

        offline = build_detection_report(
            pairing, load_report(SweepLedger(pairing.spec(), root=tmp_path))
        )
        assert artifact_json_bytes(offline.to_document()) == artifact_json_bytes(
            resumed.report.to_document()
        )


@pytest.fixture()
def tiny_preset(monkeypatch):
    """A fast 2-cell preset injected into the registry for CLI tests."""
    monkeypatch.setitem(WHATIF_PRESETS, "tiny-floor", _tiny_preset)
    return "tiny-floor"


class TestCli:
    def test_list_names_presets(self, tiny_preset, capsys):
        assert main(["whatif", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("sav-adoption", "severity-floor", "tiny-floor"):
            assert name in output
        assert "paper §5" in output

    def test_list_json_is_canonical(self, capsys):
        import json

        assert main(["whatif", "list", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "whatif-presets"
        names = [entry["name"] for entry in document["presets"]]
        assert names == preset_names()
        assert all(entry["n_cells"] == 4 for entry in document["presets"])

    def test_run_then_report_round_trip(self, tiny_preset, tmp_path, capsys):
        argv = ["whatif", "run", "--preset", tiny_preset, "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "2 cells simulated" in captured.err
        assert "whatif detection report: tiny-floor" in captured.out

        # A resumed run is pure ledger; report never simulates.
        assert main(argv + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "0 cells simulated, 2 ledger hits" in captured.err

        assert (
            main(
                [
                    "whatif",
                    "report",
                    "--preset",
                    tiny_preset,
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert "whatif detection report: tiny-floor" in capsys.readouterr().out

    def test_json_bytes_identical_across_run_report_and_library(
        self, tiny_preset, tmp_path, capsysbinary
    ):
        """Acceptance: the detection document is byte-identical no
        matter which surface hands it out."""
        base_argv = ["--preset", tiny_preset, "--cache-dir", str(tmp_path)]
        assert main(["whatif", "run", *base_argv, "--json"]) == 0
        run_bytes = capsysbinary.readouterr().out
        assert main(["whatif", "report", *base_argv, "--json"]) == 0
        report_bytes = capsysbinary.readouterr().out
        assert run_bytes == report_bytes

        from repro.core.artifacts import artifact_json_bytes

        pairing = _tiny_preset().pairing()
        library = build_detection_report(
            pairing, load_report(SweepLedger(pairing.spec(), root=tmp_path))
        )
        assert artifact_json_bytes(library.to_document()) == run_bytes

    def test_report_without_ledger_explains(self, tiny_preset, tmp_path):
        with pytest.raises(SystemExit, match="no seed has both legs"):
            main(
                [
                    "whatif",
                    "report",
                    "--preset",
                    tiny_preset,
                    "--cache-dir",
                    str(tmp_path),
                ]
            )

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit, match="unknown whatif preset"):
            main(["whatif", "run", "--preset", "nope"])

    def test_out_writes_the_report(self, tiny_preset, tmp_path, capsys):
        out = tmp_path / "artefacts" / "WHATIF_tiny.txt"
        assert (
            main(
                [
                    "whatif",
                    "run",
                    "--preset",
                    tiny_preset,
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert out.read_text(encoding="utf-8").strip() == printed.strip()

    def test_run_trace_manifest_carries_the_pairing_sweep_id(
        self, tiny_preset, tmp_path
    ):
        """Same convention as ``sweep run``: the run-level manifest names
        the pairing's sweep id with a null cell index."""
        trace = tmp_path / "whatif-manifest.json"
        argv = ["whatif", "run", "--preset", tiny_preset, "--cache-dir", str(tmp_path)]
        assert main(argv + ["--trace", str(trace)]) == 0
        schema = json.loads(
            (Path(__file__).parent / "manifest_schema.json").read_text(encoding="utf-8")
        )
        manifest = load_manifest(trace)
        assert validate_manifest(manifest, schema) == []
        assert manifest["command"] == "whatif"
        assert manifest["sweep"]["cell_index"] is None
        pairing_spec = _tiny_preset().pairing().spec()
        assert manifest["sweep"]["sweep_id"] == SweepLedger(pairing_spec).sweep_id
