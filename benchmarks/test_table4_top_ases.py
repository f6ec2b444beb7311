"""T4 — Table 4: top ASes among highly-visible targets.

Paper shape: OVH leads by a wide margin (18.8%), hosters dominate the top
ten (7 of 10), with Hetzner second.
"""

from repro.core.report import render_table4


def test_table4_top_ases(benchmark, full_study, report):
    rows = benchmark.pedantic(
        lambda: full_study.artifact_result("table4"), rounds=1, iterations=1
    )
    report("T4_top_ases", render_table4(full_study))

    assert len(rows) == 10
    # OVH leads by a wide margin.
    assert rows[0].name == "OVH"
    assert rows[0].share > 2 * rows[1].share
    assert 0.10 < rows[0].share < 0.45
    # Hetzner in the top three (paper: rank 2 at 5.1%).
    top3 = [row.name for row in rows[:3]]
    assert "Hetzner" in top3
    # Hosters dominate the top ten (paper: 7 of 10).
    hosting = sum(1 for row in rows if row.kind == "hosting")
    assert hosting >= 5
    # Shares are ranked.
    shares = [row.share for row in rows]
    assert shares == sorted(shares, reverse=True)
