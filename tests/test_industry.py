"""Tests for the industry-report corpus and survey (paper Section 3)."""

from repro.industry.corpus import (
    ALL_DOCUMENTS,
    INCLUDED_REPORTS,
    OMITTED_DOCUMENTS,
    TrendDirection,
)
from repro.industry.survey import (
    metric_frequencies,
    table3_rows,
    trend_counts,
    udp_dominance_share,
)


class TestCorpusInventory:
    def test_24_reports_from_22_vendors(self):
        assert len(INCLUDED_REPORTS) == 24
        assert len({report.vendor for report in INCLUDED_REPORTS}) == 22

    def test_double_vendors_are_akamai_and_ddos_guard(self):
        from collections import Counter

        counts = Counter(report.vendor for report in INCLUDED_REPORTS)
        doubles = {vendor for vendor, n in counts.items() if n == 2}
        assert doubles == {"Akamai", "DDoS-Guard"}

    def test_known_claims_encoded(self):
        f5 = next(r for r in INCLUDED_REPORTS if r.vendor == "F5")
        assert f5.overall_trend is TrendDirection.DECREASE
        assert "9.7%" in f5.notes
        netscout = next(r for r in INCLUDED_REPORTS if r.vendor == "Netscout")
        assert netscout.ra_trend is TrendDirection.DECREASE
        assert "17" in netscout.notes
        arelion = next(r for r in INCLUDED_REPORTS if r.vendor == "Arelion")
        assert arelion.overall_trend is TrendDirection.DECREASE
        assert arelion.dp_trend is TrendDirection.INCREASE

    def test_all_reports_validate_metrics(self):
        for report in INCLUDED_REPORTS:
            assert report.metrics  # every report publishes something


class TestTrendCounts:
    def test_table1_industry_cells(self):
        counts = trend_counts()
        # Paper Table 1: direct-path ▲(5) ▼(0); reflection-ampl ▲(2) ▼(3).
        assert counts["direct-path"].increase == 5
        assert counts["direct-path"].decrease == 0
        assert counts["reflection-amplification"].increase == 2
        assert counts["reflection-amplification"].decrease == 3

    def test_table1_cell_rendering(self):
        counts = trend_counts()
        assert counts["direct-path"].table1_cell == "▲(5), ▼(0)"
        assert counts["reflection-amplification"].table1_cell == "▲(2), ▼(3)"

    def test_totals_cover_all_reports(self):
        counts = trend_counts()
        for row in counts.values():
            assert row.total == 24

    def test_l7_growth_claims(self):
        # Seven vendors reported substantial L7 increases (Section 3).
        counts = trend_counts()
        assert counts["application-layer"].increase == 7

    def test_overall_mostly_increase(self):
        counts = trend_counts()
        assert counts["overall"].increase >= 20
        assert counts["overall"].decrease == 2  # F5 and Arelion


class TestMetricTaxonomy:
    def test_count_is_universal(self):
        rows = metric_frequencies()
        by_name = {row.metric: row for row in rows}
        assert by_name["count"].reports == 24
        assert by_name["count"].share == 1.0

    def test_sorted_descending(self):
        rows = metric_frequencies()
        counts = [row.reports for row in rows]
        assert counts == sorted(counts, reverse=True)

    def test_all_taxonomy_fields_present(self):
        rows = metric_frequencies()
        assert len(rows) == 12


class TestConsistency:
    def test_udp_dominance_is_the_one_consistent_claim(self):
        assert udp_dominance_share() == 1.0


class TestTable3:
    def test_rows_cover_all_vendors(self):
        rows = table3_rows()
        assert len(rows) == len(ALL_DOCUMENTS)
        names = [row.vendor for row in rows]
        assert names == sorted(names, key=str.lower)

    def test_included_and_omitted_consistent(self):
        rows = table3_rows()
        by_vendor = {row.vendor: row for row in rows}
        assert len(by_vendor["Akamai"].included) == 2
        assert len(by_vendor["Cloudflare"].omitted) == 4
        # Some vendors are omitted-only.
        assert by_vendor["Crowdstrike"].included == ()
        assert by_vendor["Crowdstrike"].omitted != ()

    def test_omitted_only_vendors_exist(self):
        omitted_only = set(OMITTED_DOCUMENTS) - {
            report.vendor for report in INCLUDED_REPORTS
        }
        assert {"AWS", "Fastly", "Fortinet", "Palo Alto", "RioRey", "Splunk"} <= omitted_only


class TestPeriods:
    def test_period_distribution(self):
        from repro.industry.survey import period_distribution

        buckets = period_distribution()
        assert sum(buckets.values()) == 24
        # Most reports focus on one year (Section 3).
        assert buckets["annual"] > buckets["quarterly"]
        assert buckets["annual"] >= 15
