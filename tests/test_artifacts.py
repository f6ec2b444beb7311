"""Artifact registry tests: completeness, envelopes, canonical bytes.

The registry in :mod:`repro.core.artifacts` is the one public mapping
from stable names to study outputs; these tests pin its enumeration,
the versioned envelope shape (via ``validate_artifact``), the canonical
byte encoding shared with the service, and the absence of the removed
legacy ``figureN()`` / ``tableN()`` accessors.
"""

from __future__ import annotations

import enum
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.artifacts import (
    ARTIFACTS,
    ENVELOPE_REQUIRED,
    artifact_json_bytes,
    artifact_names,
    artifact_spec,
    registry_listing,
    study_envelope,
)
from repro.core.validate import validate_artifact


class TestRegistryShape:
    def test_names_are_stable_and_ordered(self):
        names = artifact_names()
        assert names[0] == "table1"
        assert "fig2_trends" in names
        assert "federation" in names
        assert "headline" in names
        assert "fingerprints" in names
        assert len(names) == len(set(names)) == len(ARTIFACTS)

    def test_every_spec_is_fully_described(self):
        for name, spec in ARTIFACTS.items():
            assert spec.name == name
            assert spec.title
            assert spec.description
            assert spec.schema_version >= 1
            assert callable(spec.build)
            assert callable(spec.payload)
            assert isinstance(spec.schema, dict)

    def test_listing_matches_spec_order(self):
        listing = registry_listing()
        assert [entry["name"] for entry in listing] == artifact_names()
        for entry in listing:
            assert {"name", "title", "paper_anchor", "schema_version"} <= set(
                entry
            )

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="table1"):
            artifact_spec("figure99")

    def test_legacy_accessors_are_gone(self, small_study):
        # The registry is the only artifact surface now: the deprecated
        # figureN()/tableN() shims were removed after one release cycle.
        for legacy in (
            "figure2",
            "figure9",
            "figure14",
            "table1",
            "table2",
            "table4",
        ):
            assert not hasattr(small_study, legacy), legacy


class TestEnvelopes:
    def test_all_artifacts_validate(self, small_study):
        for name in artifact_names():
            document = small_study.artifact(name)
            assert validate_artifact(document) == [], name
            assert set(ENVELOPE_REQUIRED) <= set(document)
            assert document["artifact"] == name

    def test_envelope_has_no_timestamps(self, small_study):
        document = small_study.artifact("table1")
        flat = json.dumps(document).lower()
        assert "created" not in flat and "timestamp" not in flat

    def test_validate_rejects_tampered_documents(self, small_study):
        document = small_study.artifact("table1")
        broken = dict(document, schema_version=999)
        assert any("schema_version" in e for e in validate_artifact(broken))
        del (stripped := dict(document))["config_fingerprint"]
        assert validate_artifact(stripped)
        assert validate_artifact({"artifact": "nope"})

    def test_canonical_bytes_are_deterministic(self, small_study):
        first = artifact_json_bytes(small_study.artifact("fig5_shares"))
        second = artifact_json_bytes(study_envelope(small_study, "fig5_shares"))
        assert first == second
        assert first.endswith(b"\n")
        # round-trips exactly (floats use repr; sorted keys)
        assert artifact_json_bytes(json.loads(first)) == first


def json_dumps_bytes(document) -> bytes:
    """The reference encoding: CPython's ``json.dumps`` with ``indent``."""
    text = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def outcome(encode, document):
    """The bytes ``encode`` returns, or the type and text of its error."""
    try:
        return encode(document)
    except (TypeError, ValueError) as error:
        return type(error), str(error)


class Level(enum.IntEnum):
    LOW = 1
    HUGE = 2**70


class Ratio(float):
    """A float subclass whose own repr the encoders must ignore."""

    def __repr__(self) -> str:
        return "Ratio(...)"


_texts = st.text(
    st.one_of(st.sampled_from('"\\,:[]{} \n\t\x00\x1f\x7fé中😀\u2028'), st.characters()),
    max_size=8,
)
_ints = st.one_of(
    st.integers(-1000, 1000),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-(2**64)),
    st.sampled_from(list(Level)),
)
_floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300]),
    st.floats().map(Ratio),
)
_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats, _texts)
#: One key type per dict, as json sorts keys before converting them.
_keys = st.sampled_from(
    [_texts, _ints, st.floats(), st.floats().map(Ratio), st.booleans(), st.none()]
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.one_of(_ints, _floats), min_size=1, max_size=6),
        _keys.flatmap(lambda keys: st.dictionaries(keys, children, max_size=5)),
    )


_documents = st.recursive(_scalars, _containers, max_leaves=25)


class TestCanonicalEncoder:
    """``artifact_json_bytes`` against ``json.dumps(..., indent=2)``, the
    encoder it replaced, which stays here as the reference."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_documents)
    @example({"a": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324]})
    @example([2**64 + 1, -(2**70), Level.HUGE, Ratio(0.1), True, None])
    @example({1.5: "x", float("nan"): "y", float("inf"): "z"})
    @example({Level.LOW: [], 3: {}, -2: ()})
    @example({True: 1, False: 2})
    @example({None: [[], {}, ()]})
    @example('top-level "text", with commas\n')
    @example(3.25)
    @example({"set": {1, 2}})
    @example([1.0, np.int64(2)])
    @example({"x": [np.float32(1.5)]})
    @example({(1, 2): "tuple key"})
    @example({"a": 1, 2: "mixed key types"})
    def test_equals_json_dumps(self, document):
        """Equal bytes, or the same error type and text: a ``set``,
        numpy scalars, tuple keys and mixed key types raise ``TypeError``
        in both."""
        assert outcome(artifact_json_bytes, document) == outcome(
            json_dumps_bytes, document
        )

    def test_every_artifact_equals_json_dumps(self, small_study):
        for name in artifact_names():
            document = small_study.artifact(name)
            assert artifact_json_bytes(document) == json_dumps_bytes(document), name


class TestFacade:
    def test_public_surface_reexports(self):
        import repro

        for name in (
            "run_study",
            "Study",
            "StudyConfig",
            "ScenarioSpec",
            "run_sweep",
            "ARTIFACTS",
            "artifact_names",
            "artifact_json_bytes",
            "validate_artifact",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_export_helpers_write_canonical_bytes(self, small_study, tmp_path):
        from repro.core.export import write_artifact_json

        path = write_artifact_json(small_study, "table2", tmp_path / "t2.json")
        assert path.read_bytes() == artifact_json_bytes(
            small_study.artifact("table2")
        )
