"""F10 — Figure 10: weekly target overlap within observatory types.

Paper shape: UCSD observes most targets ORION sees (telescopes overlap is
ORION-bounded); the honeypots each keep a large exclusive target share;
the groups together cover most of the target universe.
"""

import numpy as np

from repro.core.report import render_figure10


def test_fig10_target_overlap(benchmark, full_study, report):
    figures = benchmark.pedantic(
        lambda: full_study.artifact_result("fig10_overlap"), rounds=1, iterations=1
    )
    report("F10_target_overlap", render_figure10(full_study))

    telescopes = figures["telescopes"]
    honeypots = figures["honeypots"]

    # Telescopes: shared line tracks ORION (the smaller instrument).
    orion_total = telescopes.weekly_b.sum()
    shared_total = telescopes.weekly_shared.sum()
    assert shared_total > 0.7 * orion_total

    # Honeypots: both platforms contribute comparable weekly volumes.
    hop_total = honeypots.weekly_a.sum()
    amp_total = honeypots.weekly_b.sum()
    assert 0.4 < amp_total / hop_total < 2.5

    # Together the honeypots cover more of the universe than telescopes
    # (paper: 69% vs 32%).
    assert honeypots.union_share_of_universe > telescopes.union_share_of_universe

    # Weekly overlap never exceeds either component.
    for figure in figures.values():
        assert (figure.weekly_shared <= figure.weekly_a + 1e-9).all()
        assert (figure.weekly_shared <= figure.weekly_b + 1e-9).all()
