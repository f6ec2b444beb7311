"""F9 — Figure 9: Netscout confirmation of academic target sets.

Paper shape: the all-four academic intersection has by far the highest
industry confirmation (~20%); single-observatory subsets sit at 2-6%;
no academic observatory independently covers the industry baseline
(reverse overlaps 3-15%).
"""

from repro.core.report import render_figure9
from repro.observatories.registry import ACADEMIC_OBSERVATORIES


def test_fig9_netscout_join(benchmark, full_study, report):
    result = benchmark.pedantic(
        lambda: full_study.artifact_result("federation"), rounds=1, iterations=1
    )
    report("F9_netscout_join", render_figure9(full_study))

    all_four = result.forward_row(*ACADEMIC_OBSERVATORIES)
    singles = {
        name: result.forward_row(name).share for name in ACADEMIC_OBSERVATORIES
    }
    # Larger multi-vector attacks are most likely confirmed: the all-four
    # subset beats the high-mass single-observatory subsets.  (ORION-only
    # targets are rare big-attack flukes and are excluded: in the paper
    # they are ~0.3% of targets.)
    for name in ("UCSD", "Hopscotch", "AmpPot"):
        assert all_four.share > singles[name], (all_four.share, singles)
    # High-mass singles are confirmed at low rates (paper 2-6%).  The
    # ORION-only subset is a handful of big-attack flukes, so its rate is
    # noise; assert the subset is tiny rather than capping its rate.
    for name in ("UCSD", "Hopscotch", "AmpPot"):
        assert singles[name] < 0.25, singles
    assert result.forward_row("ORION").academic_count < 100

    # Reverse direction: partial views only.
    assert all(share < 0.5 for share in result.reverse.values())
    assert result.reverse_union < 0.9
    # Honeypots and UCSD each cover a larger slice than tiny ORION.
    assert result.reverse["ORION"] < result.reverse["UCSD"]
