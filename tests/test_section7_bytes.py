"""Byte pins for every artifact and the conformance report.

The goldens (:mod:`repro.core.golden`) fingerprint the weekly series,
trend slopes, Figure 6's Spearman coefficients and ground truth, but
nothing of Section 7.  These sha256 digests of the canonical artifact
bytes (and of the pairwise overlap shares and the Section 7.3 text
artefact) pin the UpSet, highly-visible, federation, overlap,
quarterly-correlation, Table-4, headline and per-protocol outputs on two
configurations, so a rewrite of the target analysis must reproduce them
bit for bit.

The other nine artifacts and the rendered conformance report are pinned
the same way (``PINNED_REST``): Figure 6's p-values and Pearson matrix
are pinned nowhere else.  A fresh study that builds everything in
reverse registry order, conformance first, must give the same bytes, so
no result depends on which caller built it first.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import report
from repro.core.artifacts import artifact_json_bytes, artifact_names
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
#: :meth:`Study.pairwise_target_overlaps` and ``S73`` for
#: :func:`repro.core.report.render_section73`.
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
        "S73": "31cb3cb5d98bbcf2ce0d9b8fbb66572c32ca7c953b4b38e0be6714afb6d8dd13",
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
        "S73": "ffa3168f635541fff68a117d24d762b83dbabd2572ebeb0f33f233c36a7d7902",
    },
}


#: The artifacts ``SECTION7_ARTIFACTS`` leaves out.
REST_ARTIFACTS = (
    "table1",
    "table2",
    "fig2_trends",
    "fig3_trends",
    "fig4_heatmap",
    "fig5_shares",
    "fig6_correlation",
    "fig12_newkid",
    "fingerprints",
)

#: sha256 per artifact name, plus ``conformance`` for the rendered
#: :meth:`Study.conformance` report.
PINNED_REST = {
    "small": {
        "table1": "df29759543249a9ab3bbe7f7994c01bdda482ca954fb7e506dafc1209816bac4",
        "table2": "e01787f3613e5130e7a4fa00d9a51e01b6a492ac7682bc75b104fb8b17896344",
        "fig2_trends": "e3bb252e8dd9d623f9975c75ebda4326e26f23849ff0a7481c54d132351bd4b8",
        "fig3_trends": "01d18c1e15393960af806014d91df73f2dde7f9defac61845ae634ae4f1f2960",
        "fig4_heatmap": "1307f5cb7a5b64c17eba8941c50013f7e5a0090a7e57fc9a106d47f2afdb23fa",
        "fig5_shares": "80f1d2e4bcebd95cba09d957d985284db37d6658116b89c010f811464f8224c9",
        "fig6_correlation": "0d966829aa01f1ddfacb5e987fa6c79ce01a9bbf44f1d7d584eebd766718c6fe",
        "fig12_newkid": "ad2f4248b40bd7b606da0db92720c665892a9110534fd0133fe53a2047fe0beb",
        "fingerprints": "ae9785a9ef58a0ac4018c6fa575f111e492244469123a910b47a26f1586c6a49",
        "conformance": "abae508042c1229c3adbe202ad4a4614b221e9fd27cce9cdfcba59535221b213",
    },
    "weeks16-seed5": {
        "table1": "e73ba16773d16ca5469ebb16a1be4ba59cd5e5e9df121c2421364b8bf35999aa",
        "table2": "a18f2789d3a8e1ea5d27fbe10ccde35ae49bbec74bbead9d96c539df41b5bc97",
        "fig2_trends": "c84a3467cdb88bcc102a63200abb0f7c51a05720c6bd348a711bd103376dd82e",
        "fig3_trends": "594920e13bd4c7d966c94f5dca16a3edad8c88a6857ae3781abd3d7ba196fee0",
        "fig4_heatmap": "7d21da80b2ffe88a6ae2e2c9e8b2fa40da8026009a346377002e9ab42774ee23",
        "fig5_shares": "417471a0fb2f5f9dab80f1cb41fff1979d2ad682150d2b6fa8029542d02ada72",
        "fig6_correlation": "da8bfa59ef69998c8b67c692e1f11535e3a48ecacbae6e6ccadb9fef456150be",
        "fig12_newkid": "e1b5e21a3a9da21ef3f094848495224f7146060a14ed0b76b2e2fdad90977732",
        "fingerprints": "d693728657ee0b15533aa9b370fc09b8c3da6d81e5545f873860354b60b928fc",
        "conformance": "134ac4d737adf05b38bfee87ca1266d0f48736d4e86477cc3f54b541fafb5008",
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
    digests["S73"] = _sha256(report.render_section73(study).encode())
    return digests


def rest_digests(study: Study) -> dict[str, str]:
    """sha256 of the other nine artifacts and the conformance report."""
    digests = {
        name: _sha256(artifact_json_bytes(study.artifact(name)))
        for name in REST_ARTIFACTS
    }
    digests["conformance"] = _sha256(study.conformance().render().encode())
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


def test_small_study_rest_bytes(small_study):
    assert rest_digests(small_study) == PINNED_REST["small"]


def test_weeks16_seed5_rest_bytes(weeks16_study):
    assert rest_digests(weeks16_study) == PINNED_REST["weeks16-seed5"]


@pytest.mark.parametrize("name", ["small", "weeks16-seed5"])
def test_reverse_build_order_keeps_bytes(name, request):
    fixture = {"small": "small_study", "weeks16-seed5": "weeks16_study"}[name]
    # A fresh study over the cache the fixture filled: nothing built yet.
    study = Study(request.getfixturevalue(fixture).config)
    digests = {"conformance": _sha256(study.conformance().render().encode())}
    for artifact in reversed(artifact_names()):
        digests[artifact] = _sha256(artifact_json_bytes(study.artifact(artifact)))
    expected = {**PINNED[name], **PINNED_REST[name]}
    del expected["pairwise"], expected["S73"]
    assert digests == expected
