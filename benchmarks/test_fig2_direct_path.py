"""F2 — Figure 2: normalised weekly direct-path attack counts.

Paper shape: four of five observatories trend upward over the full
period (ORION, UCSD, Netscout, IXP clearly; Akamai is the outlier with a
slight downward drift); peaks do not coincide across vantage points.
"""

from repro.core.report import render_figure2


def test_fig2_direct_path(benchmark, full_study, report):
    figure = benchmark.pedantic(
        lambda: full_study.artifact_result("fig2_trends"),
        rounds=3, iterations=1, warmup_rounds=1
    )
    report("F2_direct_path", render_figure2(full_study))

    slopes = {
        label: series.trend_line().slope_per_year
        for label, series in figure.series.items()
    }
    # Paper: four of five observatories trend upward over the full period.
    upward = [label for label, slope in slopes.items() if slope > 0]
    assert len(upward) >= 4, slopes
    # Akamai is the divergent platform: slight downward drift.
    assert slopes["Akamai (DP)"] == min(slopes.values()), slopes
    assert -0.15 < slopes["Akamai (DP)"] < 0.05, slopes
    # Peaks do not coincide: at least three distinct peak weeks.
    peaks = {series.peak_week() for series in figure.series.values()}
    assert len(peaks) >= 3
