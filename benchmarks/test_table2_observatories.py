"""T2 — Table 2: the observatory inventory.

Checks the configured platforms against the paper's published parameters,
including the telescope-sensitivity figures of Section 5.
"""

import pytest

from repro.core.report import render_table2


def test_table2_observatories(benchmark, full_study, report):
    rows = benchmark.pedantic(
        lambda: full_study.artifact_result("table2"), rounds=3, iterations=1
    )
    report("T2_observatories", render_table2(full_study))

    by_platform = {row.platform: row for row in rows}
    assert set(by_platform) == {
        "UCSD NT",
        "ORION NT",
        "Netscout",
        "Akamai",
        "IXP BH",
        "Hopscotch",
        "AmpPot",
        "NewKid",
    }
    assert by_platform["UCSD NT"].coverage == "13M IPs"
    assert by_platform["ORION NT"].coverage == "524k IPs"
    assert by_platform["AmpPot"].threshold == ">=100 pkts"
    assert by_platform["Hopscotch"].threshold == ">=5 pkts"
    assert by_platform["NewKid"].coverage == "1 IPs"


def test_table2_sensitivity_figures(benchmark, full_study, report):
    # Section 5: UCSD-NT detects ~0.026 Mbps, ORION ~0.60 Mbps in 5 min.
    ucsd, orion = full_study.observatories.telescopes
    benchmark(ucsd.detectable_rate_mbps)
    lines = [
        "Telescope sensitivity (Section 5)",
        "",
        f"UCSD : {ucsd.detectable_rate_mbps():.3f} Mbps (paper 0.026)",
        f"ORION: {orion.detectable_rate_mbps():.3f} Mbps (paper 0.60)",
    ]
    report("T2_sensitivity", "\n".join(lines))
    assert ucsd.detectable_rate_mbps() == pytest.approx(0.026, rel=0.15)
    assert orion.detectable_rate_mbps() == pytest.approx(0.60, rel=0.15)
