"""End-to-end smoke test for the counterfactual engine (`make whatif-smoke`).

Runs the `sav-adoption` paired what-if on the pinned seed0-small window
and proves the common-random-numbers contract on a real checkout:

1. the zero-strength pairing is structurally zero-delta — both legs
   resolve to the *same* config fingerprint (the same cache entry, hence
   byte-identical feeds);
2. the seed-0 baseline leg IS the pinned golden study: its cell
   fingerprint equals `config_fingerprint(small_pinned_config(0))`;
3. after warming the golden study, the paired run leaves the golden's
   cache entry untouched (same mtime) — the baseline leg was a cache
   hit, not a recomputation;
4. the detection report is complete, reduces deterministically from the
   ledger (run bytes == the bytes `build_detection_report` makes from a
   fresh `load_report` of the ledger), and is written to
   `benchmarks/results/WHATIF_sav.txt`;
5. the run's progress hook saw every cell, and its last payload's
   running divergence agrees with the report: the same paired seeds and
   the same first detection week for every observatory that detects.

Exit code 0 means the whole counterfactual path works on this checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.artifacts import artifact_json_bytes  # noqa: E402
from repro.core.cache import StudyCache, config_fingerprint  # noqa: E402
from repro.core.golden import small_pinned_config  # noqa: E402
from repro.core.study import Study  # noqa: E402
from repro.counterfactual import (  # noqa: E402
    build_detection_report,
    run_whatif,
    whatif_preset,
)
from repro.sweep.scheduler import load_report  # noqa: E402
from repro.sweep.spec import expand  # noqa: E402

OUT = REPO / "benchmarks" / "results" / "WHATIF_sav.txt"


def fail(message: str) -> None:
    print(f"whatif-smoke: FAIL — {message}", file=sys.stderr)
    raise SystemExit(1)


def main() -> int:
    golden = small_pinned_config(0)
    golden_fp = config_fingerprint(golden)

    # 1. zero-delta is structural: identical leg fingerprints, no run.
    zero = whatif_preset("sav-adoption", strength=0.0)
    if not zero.zero_delta:
        fail("strength-0 sav-adoption pairing is not zero-delta")
    zero_cells = expand(zero.spec())
    by_leg = {}
    for cell in zero_cells:
        if cell.label_map["seed"] == "0":
            by_leg[cell.label_map["leg"]] = cell.config_fingerprint
    if by_leg["baseline"] != by_leg["counterfactual"]:
        fail("zero-delta legs have different config fingerprints")
    print("whatif-smoke: zero-delta legs share one fingerprint (byte-identical feeds)")

    # 2. the seed-0 baseline leg is the pinned golden config.
    pairing = whatif_preset("sav-adoption")
    baseline_cells = {
        cell.label_map["seed"]: cell
        for cell in expand(pairing.spec())
        if cell.label_map["leg"] == "baseline"
    }
    if baseline_cells["0"].config_fingerprint != golden_fp:
        fail(
            "seed-0 baseline leg fingerprint "
            f"{baseline_cells['0'].config_fingerprint[:12]} != pinned golden "
            f"{golden_fp[:12]}"
        )
    print(f"whatif-smoke: baseline leg is the pinned golden ({golden_fp[:12]}…)")

    # 3. warm the golden study, then require the paired run to *reuse*
    # its cache entry rather than rewrite it.
    Study(golden, jobs=0).artifact("headline")
    cache = StudyCache()
    entry = cache.path_for(golden_fp)
    if not entry.exists():
        fail(f"golden cache entry missing after warm-up: {entry}")
    mtime_before = entry.stat().st_mtime_ns

    progress: list[dict] = []
    outcome = run_whatif(pairing, jobs=0, resume=True, on_progress=progress.append)
    if outcome.stopped or outcome.report is None:
        fail("paired run did not complete")
    if not outcome.report.complete:
        fail("detection report is partial after a full run")
    if entry.stat().st_mtime_ns != mtime_before:
        fail("paired run rewrote the golden cache entry (baseline leg recomputed)")
    print(
        f"whatif-smoke: paired run done "
        f"({len(outcome.sweep.executed)} cells simulated, "
        f"{len(outcome.sweep.ledger_hits)} ledger hits); "
        "golden cache entry untouched"
    )
    if outcome.report.baseline_fingerprints[0] != golden_fp:
        fail("report's seed-0 baseline fingerprint drifted from the golden")

    # 4. the report reduces deterministically from the ledger alone.
    run_bytes = artifact_json_bytes(outcome.report.to_document())
    ledger_bytes = artifact_json_bytes(
        build_detection_report(pairing, load_report(outcome.sweep.ledger)).to_document()
    )
    if run_bytes != ledger_bytes:
        fail("run-produced and ledger-only detection documents differ")
    print(f"whatif-smoke: detection document is deterministic ({len(run_bytes)} bytes)")

    # 5. the progress path: the last payload matches the final report.
    last = progress[-1] if progress else {}
    if not last or last["cells_done"] != last["n_cells"]:
        fail(f"last progress payload does not account for every cell: {last}")
    divergence = last["divergence"] or {}
    first_weeks = {
        verdict.label: verdict.first_detection_week
        for verdict in outcome.report.verdicts
        if verdict.first_detection_week is not None
    }
    if divergence.get("paired_seeds") != list(outcome.report.seeds):
        fail("last progress payload pairs other seeds than the report")
    if divergence.get("first_detection_weeks") != first_weeks:
        fail("last progress payload's detection weeks differ from the report's")
    print(
        f"whatif-smoke: progress ({len(progress)} payloads) ends at "
        f"{last['cells_done']}/{last['n_cells']} cells, matching the report"
    )

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(outcome.report.render() + "\n", encoding="utf-8")
    detected = outcome.report.detected()
    flips = outcome.report.flips()
    print(
        f"whatif-smoke: wrote {OUT.relative_to(REPO)} "
        f"({len(detected)}/{len(outcome.report.verdicts)} observatories detect, "
        f"{len(flips)} trend flips)"
    )
    print("whatif-smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
