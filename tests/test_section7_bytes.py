"""Byte pins for the Section-7 target analysis.

The goldens (:mod:`repro.core.golden`) fingerprint the weekly series,
trend slopes, Figure 6 and ground truth, but nothing of Section 7.  These
sha256 digests of the canonical artifact bytes (and of the pairwise
overlap shares) pin the UpSet, highly-visible, federation, overlap,
quarterly-correlation, Table-4 and headline outputs on two
configurations, so a rewrite of the target analysis must reproduce them
bit for bit.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.artifacts import artifact_json_bytes
from repro.core.study import Study, StudyConfig
from repro.util.calendar import calendar_for_weeks

SECTION7_ARTIFACTS = (
    "fig7_upset",
    "fig8_highly_visible",
    "federation",
    "federation_akamai",
    "fig10_overlap",
    "fig14_quarterly",
    "table4",
    "headline",
)

#: sha256 per artifact name, plus ``pairwise`` for
#: :meth:`Study.pairwise_target_overlaps`.
PINNED = {
    "small": {
        "fig7_upset": "f98136d0a18afffa8040e5a186b38c62b7babda14cc82b1b33f0b610e4cebe4b",
        "fig8_highly_visible": "a148a56882828a45c147f0625086b17f5a01eba47b85cf247632ddfa221c50be",
        "federation": "0e384756248b447ef1643fffcdbe68956a8450d132b55996d1f85684fe5344e2",
        "federation_akamai": "97c52a69f6300e683b9d4eae64f333c0929d44f648a4f8fcd7bbedcb1ab02e7b",
        "fig10_overlap": "fd50df098332b8d157022d90aa061e00088aaeb9a69ca5cdcf60b1ae181e702c",
        "fig14_quarterly": "f3e4654fc338cb86fb7f91283ecffc98f0229f4bca777bb2ffe5a07a432af6b5",
        "table4": "aefe38b28041c6a63b23270f29ed7b620a302b786406bfaea4062f80d8f39345",
        "headline": "7354cef1d4e8fd3ba0b6ce2f91942e37297360ec557df4cf49c650b4f05b1815",
        "pairwise": "b218fae6f18abab3965b2109fb8aee098137dd58599efec12969b48c3e003485",
    },
    "weeks16-seed5": {
        "fig7_upset": "3c346a9a40d00fbf12191d0636e1ce22cb34e72a917f7368ae046a7ae19c8df0",
        "fig8_highly_visible": "9ffba649954e74adfaa0122dad634ce55ba3822d58f5c3836dae1830aa42b58c",
        "federation": "0551e8ee7eb49b0415498d8b5f98dbbd9648b414ea02a58254f9385a23cdfaa9",
        "federation_akamai": "3cd81197e420c26305df080dde694397d11b9171403db5c201c8c312f4d63179",
        "fig10_overlap": "282d02ccf1654228c4d8ffc01e8fce37bb57209905c0ba496a2c5da898d8eb1c",
        "fig14_quarterly": "87fbc61a44f5b5a74d5e4d37b8c7fffbdb07069113b36ac7eae658227f4aa608",
        "table4": "e45c1f9ad8f0d95f4de68719b6b6d0d5b9b2108f6bdad14f848cd2eb3b914dfa",
        "headline": "af51852c4a8970e63c9582e6b61a61a4be0d6e079bf1d1ed47a94092e70ff59a",
        "pairwise": "99caf04d41454d5aa3ad8e3e63d6d00851a6b2443ea898ee64296c56a695d3f2",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def section7_digests(study: Study) -> dict[str, str]:
    """sha256 of every pinned Section-7 output of ``study``."""
    digests = {
        name: _sha256(artifact_json_bytes(study.artifact(name)))
        for name in SECTION7_ARTIFACTS
    }
    pairwise = [
        [a, b, share] for (a, b), share in study.pairwise_target_overlaps().items()
    ]
    digests["pairwise"] = _sha256(json.dumps(pairwise).encode())
    return digests


@pytest.fixture(scope="module")
def weeks16_study() -> Study:
    study = Study(StudyConfig(seed=5, calendar=calendar_for_weeks(16)))
    study.observations  # noqa: B018 - run the simulation once
    return study


def test_small_study_section7_bytes(small_study):
    assert section7_digests(small_study) == PINNED["small"]


def test_weeks16_seed5_section7_bytes(weeks16_study):
    assert section7_digests(weeks16_study) == PINNED["weeks16-seed5"]
