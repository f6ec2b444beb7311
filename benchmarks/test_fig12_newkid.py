"""F12 — Figure 12 (Appendix D): NewKid's erratic single-sensor series.

Paper shape: one sensor produces erratic weekly counts (excluded from the
long-term trend analysis), yet the mid-2022 carpet wave is visible (the
paper's peak reaches 33x the baseline).
"""

from repro.core.report import render_figure12


def test_fig12_newkid(benchmark, full_study, report):
    series = benchmark.pedantic(
        lambda: full_study.artifact_result("fig12_newkid"), rounds=3, iterations=1
    )
    report("F12_newkid", render_figure12(full_study))

    counts = series.counts
    # Erratic: some weeks observe nothing at all.
    assert (counts == 0).sum() >= 3
    # Relative peaks dwarf the baseline (paper: up to 33x).
    assert series.normalized.max() > 5.0
    # The mid-2022 carpet wave (weeks ~179-185) stands out against its
    # neighbourhood.
    window = series.normalized[179:186].max()
    neighbourhood = series.normalized[150:176].mean()
    assert window > neighbourhood
