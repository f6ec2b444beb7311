"""F8 — Figure 8: highly-visible targets over time.

Paper shape: a small all-observatory intersection (0.55% of targets) that
keeps accruing new targets throughout the window, with most appearing
between 2020Q4 and 2021Q2.
"""

import numpy as np

from repro.core.report import render_figure8


def test_fig8_highly_visible(benchmark, full_study, report):
    result = benchmark.pedantic(
        lambda: full_study.artifact_result("fig8_highly_visible"),
        rounds=1,
        iterations=1,
    )
    report("F8_highly_visible", render_figure8(full_study))

    assert len(result.keys) > 100
    # Small share of the universe (paper 0.55%).
    assert 0.001 < result.share_of_universe < 0.02
    # New targets keep appearing: the CDF grows throughout, with no
    # quarter contributing more than half of all targets.
    cdf = result.cdf
    assert cdf[-1] == 1.0
    quarterly_gains = np.diff(cdf[::13])
    assert quarterly_gains.max() < 0.5
    # Recurrence exists but new targets dominate (mostly fresh victims).
    assert result.new_per_week.sum() >= result.recurring_per_week.sum() * 0.5
