"""F7 — Figure 7: UpSet decomposition of academic DDoS targets.

Paper shape: both honeypots see ~48% of all targets each; ORION an order
of magnitude fewer than the honeypots and ~6x fewer than UCSD; same-type
pairwise overlap exceeds 50% (except UCSD->ORION at ~14%); only 0.55% of
targets are seen by all four observatories.
"""

from repro.core.report import render_figure7


def test_fig7_upset(benchmark, full_study, report):
    result = benchmark.pedantic(
        lambda: full_study.artifact_result("fig7_upset"), rounds=1, iterations=1
    )
    report("F7_upset", render_figure7(full_study))

    shares = result.set_shares
    # Honeypots each cover a large share of the universe (paper ~48%).
    assert 0.30 < shares["Hopscotch"] < 0.60, shares
    assert 0.25 < shares["AmpPot"] < 0.60, shares
    # ORION sees far fewer targets: ~an order of magnitude below the HPs.
    assert shares["ORION"] < shares["Hopscotch"] / 4, shares
    # UCSD sits between ORION and the honeypots, roughly 5-8x ORION.
    ratio = result.set_sizes["UCSD"] / result.set_sizes["ORION"]
    assert 3.0 < ratio < 12.0, ratio
    # The all-four intersection is a small fraction (paper: 0.55%).
    all_share = result.seen_by_all().share
    assert 0.001 < all_share < 0.02, all_share


def test_fig7_pairwise_overlaps(benchmark, full_study, report):
    overlaps = benchmark.pedantic(
        full_study.pairwise_target_overlaps, rounds=1, iterations=1
    )
    rows = "\n".join(
        f"{a:10s} -> {b:10s} {share * 100:5.1f}%"
        for (a, b), share in sorted(overlaps.items())
    )
    report("F7_pairwise_overlaps", "Pairwise directed target overlaps\n\n" + rows)

    # ORION targets are big attacks: almost all visible at UCSD (paper 87%).
    assert overlaps[("ORION", "UCSD")] > 0.7
    # UCSD shares only a small slice with tiny ORION (paper 14%).
    assert overlaps[("UCSD", "ORION")] < 0.3
    # The honeypots share large portions of their targets (paper 57%/56%).
    assert overlaps[("AmpPot", "Hopscotch")] > 0.4
    assert overlaps[("Hopscotch", "AmpPot")] > 0.35
