"""F14 — Figure 14 (Appendix F): quarterly pairwise correlations.

Paper shape: most quarterly correlations are unstable (boxes span much of
[-1, 1]); same-attack-type pairs have tighter, more positive boxes than
cross-type pairs.
"""

import numpy as np

from repro.core.report import render_figure14


def _is_ra(label: str) -> bool:
    return "(RA)" in label


def test_fig14_quarterly(benchmark, full_study, report):
    figure = benchmark.pedantic(
        lambda: full_study.artifact_result("fig14_quarterly"), rounds=1, iterations=1
    )
    report("F14_quarterly", render_figure14(full_study))

    assert len(figure.pairs) == 45  # all 10-choose-2 pairs

    same_medians, cross_medians, spans = [], [], []
    for (a, b), stats in figure.pairs.items():
        spans.append(stats.maximum - stats.minimum)
        if _is_ra(a) == _is_ra(b):
            same_medians.append(stats.median)
        else:
            cross_medians.append(stats.median)

    # Quarterly correlations are unstable: typical box spans are wide.
    assert np.mean(spans) > 0.8
    # Same-type medians exceed cross-type medians on average.
    assert np.mean(same_medians) > np.mean(cross_medians)
    # Quarters sampled: 18 over 4.5 years.
    assert max(stats.n for stats in figure.pairs.values()) == 18
