"""Tests for the per-protocol honeypot composition (Section 7.3)."""

import pytest

from repro.core.protocols import (
    VectorOverlap,
    per_vector_target_overlap,
    render_vector_overlap,
)


class TestVectorOverlap:
    def test_hp_protocol_composition(self, small_study):
        overlaps = per_vector_target_overlap(
            small_study.observations["Hopscotch"],
            small_study.observations["AmpPot"],
        )
        # AmpPot leans CHARGEN, Hopscotch leans CLDAP (paper Section 7.3).
        assert overlaps["CHARGEN"].skew < 1.0  # A=Hopscotch sees fewer
        assert overlaps["CLDAP"].targets_a > 0
        assert overlaps["CLDAP"].targets_b == 0  # AmpPot lacks CLDAP
        # Shared protocols like NTP/QOTD overlap substantially.
        assert overlaps["NTP"].jaccard > 0.15
        assert overlaps["QOTD"].jaccard > 0.1

    def test_overlap_record_maths(self):
        overlap = VectorOverlap(vector="DNS", targets_a=60, targets_b=40, shared=20)
        assert overlap.jaccard == pytest.approx(20 / 80)
        assert overlap.skew == pytest.approx(1.5)
        empty = VectorOverlap(vector="DNS", targets_a=0, targets_b=0, shared=0)
        assert empty.jaccard == 0.0
        assert empty.skew == 1.0
        one_sided = VectorOverlap(vector="DNS", targets_a=5, targets_b=0, shared=0)
        assert one_sided.skew == float("inf")

    def test_render(self, small_study):
        overlaps = per_vector_target_overlap(
            small_study.observations["Hopscotch"],
            small_study.observations["AmpPot"],
        )
        text = render_vector_overlap("Hopscotch", "AmpPot", overlaps)
        assert "CHARGEN" in text
        assert "jaccard" in text
