"""F4 — Figure 4: heatmap of all ten normalised series.

Paper shape: direct-path series intensify toward 2022-2023,
reflection-amplification series are hottest 2020Q2-2021Q2.
"""

import numpy as np

from repro.core.report import render_figure4


def test_fig4_heatmap(benchmark, full_study, report):
    figure = benchmark.pedantic(
        lambda: full_study.artifact_result("fig4_heatmap"),
        rounds=3, iterations=1, warmup_rounds=1
    )
    report("F4_heatmap", render_figure4(full_study))

    assert figure.matrix.shape[0] == 10
    labels = figure.labels
    dp_rows = [i for i, label in enumerate(labels) if "(RA)" not in label]
    ra_rows = [i for i, label in enumerate(labels) if "(RA)" in label]
    assert len(dp_rows) == 5 and len(ra_rows) == 5

    matrix = figure.matrix
    # RA intensity is concentrated in 2020Q2-2021Q2 (weeks ~65-130).
    ra_hot = matrix[np.ix_(ra_rows, range(65, 130))].mean()
    ra_late = matrix[np.ix_(ra_rows, range(182, 234))].mean()
    assert ra_hot > ra_late
    # DP intensity grows toward the late window.
    dp_early = matrix[np.ix_(dp_rows, range(0, 52))].mean()
    dp_late = matrix[np.ix_(dp_rows, range(156, 234))].mean()
    assert dp_late > dp_early
