"""F6 — Figure 6: pairwise Spearman correlation matrices with p-values.

Paper shape: platforms observing the same attack class correlate more
strongly than cross-class pairs; EWMA correlations exceed raw ones; the
Pearson cross-check agrees directionally.
"""

import numpy as np

from repro.core.report import render_figure6


def _group_means(matrix):
    labels = matrix.labels
    dp = [i for i, label in enumerate(labels) if "(RA)" not in label]
    ra = [i for i, label in enumerate(labels) if "(RA)" in label]

    def mean_of(rows, cols, exclude_diagonal=True):
        values = []
        for i in rows:
            for j in cols:
                if exclude_diagonal and i == j:
                    continue
                values.append(matrix.coefficients[i, j])
        return float(np.mean(values))

    same_type = (mean_of(dp, dp) + mean_of(ra, ra)) / 2
    cross_type = mean_of(dp, ra, exclude_diagonal=False)
    return same_type, cross_type


def test_fig6_correlation(benchmark, full_study, report):
    figure = benchmark.pedantic(
        lambda: full_study.artifact_result("fig6_correlation"),
        rounds=2, iterations=1, warmup_rounds=1
    )
    report("F6_correlation", render_figure6(full_study))

    same_raw, cross_raw = _group_means(figure.normalized)
    # Same-attack-type platforms correlate more strongly (paper Section 6.3).
    assert same_raw > cross_raw + 0.1, (same_raw, cross_raw)

    # EWMA correlations are more pronounced than raw ones.
    same_smooth, _ = _group_means(figure.smoothed)
    assert same_smooth >= same_raw - 0.02

    # Pearson cross-check agrees on the group ordering.
    same_pearson, cross_pearson = _group_means(figure.pearson_normalized)
    assert same_pearson > cross_pearson

    # p-values behave: perfectly insignificant entries are rare among
    # same-type pairs, common among cross-type pairs.
    significant = figure.normalized.significant_mask()
    labels = figure.normalized.labels
    dp = [i for i, label in enumerate(labels) if "(RA)" not in label]
    same_type_significant = np.mean(
        [significant[i, j] for i in dp for j in dp if i != j]
    )
    assert same_type_significant > 0.5
