"""Tests for the artefact renderers (repro.core.report)."""

import pytest

from repro.core import report


class TestRenderAll:
    def test_every_artefact_renders(self, small_study):
        rendered = report.render_all(small_study)
        expected = {
            "T1", "T2", "T3", "T4",
            "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10",
            "F12", "F13", "F14", "S3", "S73",
        }
        assert set(rendered) == expected
        for key, text in rendered.items():
            assert isinstance(text, str) and text, key

    def test_renderer_registry_consistency(self):
        # Every registry entry maps to an existing function.
        for key, renderer in report.RENDERERS.items():
            assert callable(renderer), key


class TestIndividualRenderers:
    def test_figure2_contains_all_dp_platforms(self, small_study):
        text = report.render_figure2(small_study)
        for label in ("ORION", "UCSD", "Netscout (DP)", "Akamai (DP)", "IXP (DP)"):
            assert label in text
        assert "slope" in text or "/yr" in text

    def test_figure3_headline(self, small_study):
        text = report.render_figure3(small_study)
        assert "reflection-amplification" in text
        assert "Hopscotch (RA)" in text

    def test_figure5_mentions_crossing(self, small_study):
        text = report.render_figure5(small_study)
        assert "50% crossing" in text
        assert "paper: 2021Q2" in text

    def test_figure6_masks_insignificant(self, small_study):
        text = report.render_figure6(small_study)
        assert "insignificant pairs" in text
        assert "EWMA" in text

    def test_figure7_paper_reference(self, small_study):
        text = report.render_figure7(small_study)
        assert "paper: 0.55%" in text
        assert "ORION" in text

    def test_figure9_both_directions(self, small_study):
        text = report.render_figure9(small_study)
        assert "confirmed by Netscout" in text
        assert "baseline seen by" in text

    def test_table2_inventory(self, small_study):
        text = report.render_table2(small_study)
        assert "UCSD NT" in text
        assert "AmpPot" in text

    def test_table3_static(self):
        text = report.render_table3()
        assert "vendor" in text
        assert "Cloudflare" in text

    def test_industry_survey_static(self):
        text = report.render_industry_survey()
        assert "trend claims" in text
        assert "count" in text

    def test_section73_protocol_table(self, small_study):
        text = report.render_section73(small_study)
        assert "Hopscotch" in text and "AmpPot" in text
        assert "CHARGEN" in text
