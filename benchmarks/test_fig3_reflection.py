"""F3 — Figure 3: normalised weekly reflection-amplification counts.

Paper shape: all five vantage points rise through 2020 and decline across
2021 (the SAV-initiative window); takedowns leave only small valleys; the
mid-2022 carpet-bombing spike is honeypot-only.
"""

import numpy as np

from repro.core.report import render_figure3


def test_fig3_reflection(benchmark, full_study, report):
    figure = benchmark.pedantic(
        lambda: full_study.artifact_result("fig3_trends"),
        rounds=3, iterations=1, warmup_rounds=1
    )
    report("F3_reflection", render_figure3(full_study))

    series = figure.series
    assert len(series) == 5
    # Rise into 2020Q4-2021Q1, decline across 2021-2022 (paper Section 6.2).
    for label, weekly in series.items():
        y2020 = weekly.normalized[52:104].mean()
        y2019 = weekly.normalized[:52].mean()
        y2022 = weekly.normalized[156:208].mean()
        assert y2020 > y2019, (label, y2019, y2020)
        assert y2022 < y2020, (label, y2020, y2022)
    # Full-period slopes are negative (Table 1 RA row: no increases).
    slopes = [weekly.trend_line().slope_per_year for weekly in series.values()]
    assert all(slope < 0 for slope in slopes), slopes
    # Takedown markers present at the paper's two dates.
    assert len(figure.takedown_weeks) == 2
    # Takedowns leave no lasting dent: counts a quarter after the first
    # takedown are not dramatically below the quarter before.
    week = figure.takedown_weeks[0]
    for label, weekly in series.items():
        before = weekly.normalized[week - 13 : week].mean()
        after = weekly.normalized[week + 4 : week + 17].mean()
        assert after > 0.4 * before, (label, before, after)


def test_fig3_carpet_spike_is_honeypot_only(benchmark, full_study):
    # Mid-2022 (weeks ~179-185): the SSDP carpet wave lifts honeypots
    # relative to their neighbourhood, but not the industry feeds.
    series = benchmark.pedantic(
        lambda: full_study.artifact_result("fig3_trends"), rounds=1, iterations=1
    ).series
    window = slice(179, 186)
    neighbourhood = slice(160, 176)

    def lift(label):
        weekly = series[label].normalized
        return weekly[window].mean() / max(weekly[neighbourhood].mean(), 1e-9)

    hp_lift = min(lift("Hopscotch (RA)"), lift("AmpPot (RA)"))
    industry_lift = max(lift("Netscout (RA)"), lift("IXP (RA)"))
    assert hp_lift > industry_lift, (hp_lift, industry_lift)
