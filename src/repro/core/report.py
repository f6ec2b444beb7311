"""Rendered reports: one function per paper artefact.

Each ``render_*`` function takes a :class:`~repro.core.study.Study` and
returns the text a reader would compare against the corresponding table or
figure of the paper — the benchmark harness and the examples both print
these.
"""

from __future__ import annotations

import numpy as np

from repro.core.render import (
    format_matrix,
    format_percent,
    format_table,
    heatmap,
    sparkline,
)
from repro.core.study import Study, TrendFigure
from repro.industry.survey import (
    metric_frequencies,
    period_distribution,
    table3_rows,
    trend_counts,
)
from repro.observatories.registry import ACADEMIC_OBSERVATORIES


def _render_trend_figure(figure: TrendFigure, title: str) -> str:
    lines = [title, ""]
    for label, series in figure.series.items():
        slopes = series.trend_lines_by_year()
        slope_text = " ".join(
            f"{year}:{line.slope_per_year:+.2f}/yr" for year, line in slopes.items()
        )
        lines.append(f"{label:15s} |{sparkline(series.normalized)}|")
        lines.append(f"{'':15s}  peak week {series.peak_week():3d}   {slope_text}")
    if figure.takedown_weeks:
        lines.append("")
        lines.append(f"takedown marker weeks: {figure.takedown_weeks}")
    return "\n".join(lines)


def render_figure2(study: Study) -> str:
    """Figure 2: normalised weekly direct-path attack counts."""
    return _render_trend_figure(
        study.artifact_result("fig2_trends"), "Figure 2 - direct-path attacks (normalised weekly counts)"
    )


def render_figure3(study: Study) -> str:
    """Figure 3: normalised weekly reflection-amplification counts."""
    return _render_trend_figure(
        study.artifact_result("fig3_trends"),
        "Figure 3 - reflection-amplification attacks (normalised weekly counts)",
    )


def render_figure4(study: Study) -> str:
    """Figure 4: all ten series as a heatmap."""
    figure = study.artifact_result("fig4_heatmap")
    return "Figure 4 - normalised attack counts, all vantage points\n\n" + heatmap(
        figure.labels, figure.matrix
    )


def render_figure5(study: Study) -> str:
    """Figure 5: Netscout DP/RA share and the 50% crossing."""
    shares = study.artifact_result("fig5_shares")
    crossing = shares.last_crossing_quarter()
    lines = [
        "Figure 5 - Netscout weekly attack-class share",
        "",
        f"RA share |{sparkline(shares.ra_share)}|",
        f"DP share |{sparkline(shares.dp_share)}|",
        f"last 50% crossing: {crossing or 'none'} (paper: 2021Q2)",
    ]
    return "\n".join(lines)


def render_figure6(study: Study) -> str:
    """Figure 6: Spearman correlation matrices with significance."""
    figure = study.artifact_result("fig6_correlation")
    parts = ["Figure 6 - Spearman correlations (normalised series)", ""]
    parts.append(format_matrix(figure.normalized.labels, figure.normalized.coefficients))
    insignificant = (~figure.normalized.significant_mask()).sum() // 2
    parts.append(f"\ninsignificant pairs (p > 0.05): {insignificant}")
    parts.append("\nSpearman correlations (EWMA series)\n")
    parts.append(format_matrix(figure.smoothed.labels, figure.smoothed.coefficients))
    return "\n".join(parts)


def render_figure7(study: Study) -> str:
    """Figure 7: UpSet decomposition of academic target tuples."""
    result = study.artifact_result("fig7_upset")
    lines = [
        "Figure 7 - target (date, IP) tuples across academic observatories",
        "",
        f"distinct targets (universe): {result.universe_size}",
        "",
        "per-observatory totals (not exclusive):",
    ]
    for name in result.set_names:
        lines.append(
            f"  {name:10s} {result.set_sizes[name]:9d}  "
            f"{format_percent(result.set_shares[name])}"
        )
    lines.append("")
    lines.append("largest exclusive intersections:")
    for row in result.rows[:10]:
        members = " & ".join(row.members)
        lines.append(f"  {row.count:9d}  {format_percent(row.share, 2):>7s}  {members}")
    all_row = result.seen_by_all()
    lines.append(
        f"\nseen by all four: {all_row.count} "
        f"({format_percent(all_row.share, 2)}; paper: 0.55%)"
    )
    return "\n".join(lines)


def render_figure8(study: Study) -> str:
    """Figure 8: highly-visible targets over time."""
    result = study.artifact_result("fig8_highly_visible")
    lines = [
        "Figure 8 - targets observed by all four academic observatories",
        "",
        f"tuples: {len(result.keys)}   distinct IPs: {len(result.distinct_ips)}",
        f"share of universe: {format_percent(result.share_of_universe, 2)} (paper: 0.55%)",
        f"new/week       |{sparkline(result.new_per_week)}|",
        f"recurring/week |{sparkline(result.recurring_per_week)}|",
        f"CDF            |{sparkline(result.cdf)}|",
    ]
    return "\n".join(lines)


def _render_federation(study: Study, which: str) -> str:
    result = study.artifact_result("federation") if which == "Netscout" else study.artifact_result("federation_akamai")
    lines = [
        f"{'Figure 9' if which == 'Netscout' else 'Figure 13'} - share of academic "
        f"targets confirmed by {which}",
        "",
        f"industry baseline size: {result.baseline_size}",
        "",
        "confirmation share per exclusive academic subset:",
    ]
    for row in sorted(result.forward, key=lambda r: -len(r.members)):
        if row.academic_count == 0:
            continue
        members = " & ".join(row.members)
        lines.append(
            f"  {format_percent(row.share):>6s}  ({row.confirmed_count}/"
            f"{row.academic_count})  {members}"
        )
    lines.append("")
    lines.append(f"share of {which} baseline seen by each academic observatory:")
    for name in ACADEMIC_OBSERVATORIES:
        lines.append(f"  {name:10s} {format_percent(result.reverse[name])}")
    lines.append(f"  union      {format_percent(result.reverse_union)}")
    return "\n".join(lines)


def render_figure9(study: Study) -> str:
    """Figure 9: Netscout federated confirmation."""
    return _render_federation(study, "Netscout")


def render_figure13(study: Study) -> str:
    """Figure 13 (Appendix G): Akamai federated confirmation."""
    return _render_federation(study, "Akamai")


def render_figure10(study: Study) -> str:
    """Figure 10: weekly target overlap within observatory types."""
    figures = study.artifact_result("fig10_overlap")
    lines = ["Figure 10 - weekly observed targets and overlap", ""]
    for name, figure in figures.items():
        lines.append(f"[{name}] {figure.label_a} vs {figure.label_b}")
        lines.append(f"  {figure.label_a:10s} |{sparkline(figure.weekly_a)}|")
        lines.append(f"  {figure.label_b:10s} |{sparkline(figure.weekly_b)}|")
        lines.append(f"  {'shared':10s} |{sparkline(figure.weekly_shared)}|")
        lines.append(
            f"  union covers {format_percent(figure.union_share_of_universe)} "
            f"of all targets, {format_percent(figure.exclusive_share_of_universe)} "
            "exclusively"
        )
        lines.append("")
    return "\n".join(lines)


def render_figure12(study: Study) -> str:
    """Figure 12 (Appendix D): NewKid's erratic series."""
    series = study.artifact_result("fig12_newkid")
    zero_weeks = int((series.counts == 0).sum())
    return "\n".join(
        [
            "Figure 12 - NewKid (single sensor) normalised attack counts",
            "",
            f"NewKid |{sparkline(series.normalized)}|",
            f"weeks with zero observed attacks: {zero_weeks}/{len(series)}",
            f"peak normalised value: {series.normalized.max():.1f} (paper: up to 33)",
        ]
    )


def render_figure14(study: Study) -> str:
    """Figure 14 (Appendix F): quarterly pairwise correlation boxes."""
    figure = study.artifact_result("fig14_quarterly")
    rows = []
    for (a, b), stats in sorted(figure.pairs.items()):
        rows.append(
            [
                f"{a} ~ {b}",
                f"{stats.median:+.2f}",
                f"{stats.mean:+.2f}",
                f"{stats.q1:+.2f}..{stats.q3:+.2f}",
                str(stats.n),
            ]
        )
    table = format_table(
        ["pair", "median", "mean", "IQR", "quarters"], rows
    )
    return "Figure 14 - quarterly pairwise Spearman correlations\n\n" + table


def render_table1(study: Study) -> str:
    """Table 1: trend symbols per observatory plus industry counts."""
    rows = []
    table1 = study.artifact_result("table1")
    for row in table1:
        cells = [row.attack_type]
        cells.extend(
            f"{label.split(' ')[0]}:{trend.symbol}"
            for label, trend in row.observatory_trends.items()
        )
        cells.append(f"industry {row.industry.table1_cell}")
        rows.append(cells)
    width = max(len(r) for r in rows)
    headers = ["type"] + [f"obs{i}" for i in range(1, width - 1)] + ["industry"]
    return "Table 1 - trend classification (4-year horizon)\n\n" + format_table(
        headers, rows
    )


def render_table2(study: Study) -> str:
    """Table 2: observatory inventory."""
    rows = [
        [row.platform, row.type, row.attack, row.coverage, row.flow_identifier,
         row.timeout, row.threshold]
        for row in study.artifact_result("table2")
    ]
    return "Table 2 - observatories\n\n" + format_table(
        ["platform", "type", "attack", "coverage", "flow id", "timeout", "threshold"],
        rows,
    )


def render_table3() -> str:
    """Table 3: included/omitted industry documents."""
    rows = [
        [row.vendor, str(len(row.included)), str(len(row.omitted))]
        for row in table3_rows()
    ]
    return "Table 3 - surveyed industry documents\n\n" + format_table(
        ["vendor", "included", "omitted"], rows
    )


def render_table4(study: Study) -> str:
    """Table 4: top ASes among highly-visible targets."""
    rows = [
        [str(row.rank), row.name, str(row.asn), str(row.tuples),
         format_percent(row.share), row.kind]
        for row in study.artifact_result("table4")
    ]
    return (
        "Table 4 - top ASes among targets seen by all four academic "
        "observatories\n\n"
        + format_table(["rank", "provider", "ASN", "tuples", "share", "kind"], rows)
    )


def render_industry_survey() -> str:
    """Section 3: industry-report survey aggregates."""
    counts = trend_counts()
    lines = ["Section 3 - industry report survey", "", "trend claims per attack type:"]
    for key, row in counts.items():
        lines.append(
            f"  {key:25s} up:{row.increase:2d} down:{row.decrease:2d} "
            f"unspecified:{row.unspecified:2d}"
        )
    lines.append("")
    lines.append("metrics taxonomy (reports publishing each attribute):")
    for row in metric_frequencies():
        lines.append(f"  {row.metric:18s} {row.reports:2d}  {format_percent(row.share)}")
    lines.append("")
    lines.append("analysis periods:")
    for bucket, count in period_distribution().items():
        lines.append(f"  {bucket:10s} {count:2d}")
    return "\n".join(lines)


#: All artefact renderers keyed by experiment id (see DESIGN.md).
RENDERERS = {
    "T1": render_table1,
    "T2": render_table2,
    "T4": render_table4,
    "F2": render_figure2,
    "F3": render_figure3,
    "F4": render_figure4,
    "F5": render_figure5,
    "F6": render_figure6,
    "F7": render_figure7,
    "F8": render_figure8,
    "F9": render_figure9,
    "F10": render_figure10,
    "F12": render_figure12,
    "F13": render_figure13,
    "F14": render_figure14,
}


def render_section73(study: Study) -> str:
    """Section 7.3: per-protocol honeypot target composition."""
    from repro.core.protocols import per_vector_target_overlap, render_vector_overlap

    overlaps = per_vector_target_overlap(
        study.observations["Hopscotch"], study.observations["AmpPot"]
    )
    return render_vector_overlap("Hopscotch", "AmpPot", overlaps)


def render_all(study: Study) -> dict[str, str]:
    """Render every study-dependent artefact."""
    rendered = {key: renderer(study) for key, renderer in RENDERERS.items()}
    rendered["T3"] = render_table3()
    rendered["S3"] = render_industry_survey()
    rendered["S73"] = render_section73(study)
    return rendered


def summary_matrix(study: Study) -> np.ndarray:
    """The Figure-4 matrix (convenience for numeric consumers)."""
    return study.artifact_result("fig4_heatmap").matrix
