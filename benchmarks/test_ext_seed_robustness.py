"""Extension — seed robustness of the headline findings.

The paper's qualitative conclusions should not depend on one lucky random
seed.  This benchmark runs the ``seed-robustness`` sweep preset
(:mod:`repro.sweep`) — the same reduced-scale three-seed ensemble this
file used to hand-roll — and checks that the headline shapes hold in
every cell: direct path trends up, reflection-amplification peaks in
2020/21 and declines, honeypots dominate target counts, and the all-four
intersection stays a small fraction.
"""

from repro.sweep import SweepLedger, preset, run_sweep

SPEC = preset("seed-robustness")

#: 52-week chunk indices of the 4-year window (the last chunk absorbs
#: the partial tail, i.e. "2022 onward").
YEAR_2020, YEAR_2022 = 1, 3


def summarise(cell) -> dict:
    """The quantities the robustness claims are made over, per cell."""
    dp_slopes = {
        label: trend["slope_per_year"]
        for label, trend in cell.trends.items()
        if "(RA)" not in label
    }
    ra_means = {
        label: (means[YEAR_2020], means[YEAR_2022])
        for label, means in cell.year_means.items()
        if "(RA)" in label
    }
    return {
        "dp_slopes": dp_slopes,
        "ra_means": ra_means,
        "hp_share": cell.headline["set_shares"]["Hopscotch"],
        "orion_share": cell.headline["set_shares"]["ORION"],
        "all_four": cell.headline["all_four_share"],
    }


def test_ext_seed_robustness(benchmark, report):
    outcome = benchmark.pedantic(
        lambda: run_sweep(SweepLedger(SPEC), jobs=1), rounds=1, iterations=1
    )
    results = {
        cell.seed: summarise(cell) for cell in outcome.report.cells
    }

    lines = ["Seed robustness of headline shapes", ""]
    for seed, result in results.items():
        upward = sum(1 for slope in result["dp_slopes"].values() if slope > 0)
        ra_declining = sum(
            1 for y2020, y2022 in result["ra_means"].values() if y2022 < y2020
        )
        lines.append(
            f"seed {seed}: DP upward {upward}/5; RA 2022<2020 {ra_declining}/5; "
            f"HP share {result['hp_share'] * 100:.0f}%; "
            f"ORION {result['orion_share'] * 100:.1f}%; "
            f"all-four {result['all_four'] * 100:.2f}%"
        )
        # Headline shapes per seed.
        assert upward >= 3, (seed, result["dp_slopes"])
        assert ra_declining >= 4, (seed, result["ra_means"])
        assert result["hp_share"] > 3 * result["orion_share"]
        assert 0.0005 < result["all_four"] < 0.03
    lines.append("")
    lines.append("All headline orderings hold under every seed tested.")
    report("EXT_seed_robustness", "\n".join(lines))
