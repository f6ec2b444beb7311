"""Tests for the golden-fingerprint layer."""

import json
import os

import numpy as np
import pytest

from repro.core.cache import config_fingerprint
from repro.core.golden import (
    GoldenStore,
    compare_fingerprints,
    fingerprint_array,
    golden_payload,
    pinned_configs,
    small_pinned_config,
    study_fingerprints,
    verify_study,
)


class TestFingerprintArray:
    def test_deterministic(self):
        array = np.arange(100, dtype=np.float64)
        assert fingerprint_array(array) == fingerprint_array(array.copy())

    def test_value_sensitive(self):
        array = np.arange(100, dtype=np.float64)
        perturbed = array.copy()
        perturbed[42] += 1e-12
        assert fingerprint_array(array) != fingerprint_array(perturbed)

    def test_dtype_sensitive(self):
        zeros64 = np.zeros(4, dtype=np.int64)
        # Same raw byte count, different dtype: must not collide.
        zeros32 = np.zeros(8, dtype=np.int32)
        assert fingerprint_array(zeros64) != fingerprint_array(zeros32)

    def test_shape_sensitive(self):
        flat = np.arange(12, dtype=np.float64)
        assert fingerprint_array(flat) != fingerprint_array(flat.reshape(3, 4))

    def test_non_contiguous_input(self):
        array = np.arange(20, dtype=np.float64)
        strided = array[::2]
        assert fingerprint_array(strided) == fingerprint_array(
            np.ascontiguousarray(strided)
        )


class TestStudyFingerprints:
    def test_covers_series_trends_correlations_and_ground_truth(
        self, small_study
    ):
        fingerprints = study_fingerprints(small_study)
        assert len(fingerprints) >= 14
        assert "trends/slope-per-year" in fingerprints
        assert "correlation/spearman-raw" in fingerprints
        assert "correlation/spearman-ewma" in fingerprints
        assert any(key.startswith("series/") for key in fingerprints)
        assert any(key.startswith("ground-truth/") for key in fingerprints)

    def test_stable_within_a_process(self, small_study):
        assert study_fingerprints(small_study) == study_fingerprints(small_study)


class TestCompare:
    def test_exact_match_is_empty(self):
        fps = {"a": "1", "b": "2"}
        assert compare_fingerprints(fps, dict(fps)) == []

    def test_drift_new_and_dropped_keys_reported(self):
        mismatches = compare_fingerprints(
            {"shared": "x", "new": "n"}, {"shared": "y", "gone": "g"}
        )
        text = "\n".join(mismatches)
        assert "shared" in text
        assert "new" in text and "new output" in text
        assert "gone" in text and "no longer produced" in text


class TestStore:
    def test_round_trip(self, tmp_path):
        store = GoldenStore(tmp_path)
        payload = {"schema": 1, "fingerprints": {"a": "1"}}
        path = store.save("demo", payload)
        assert path.exists()
        assert store.load("demo") == payload
        assert store.names() == ["demo"]

    def test_save_killed_before_the_rename_keeps_the_old_document(
        self, tmp_path, monkeypatch
    ):
        store = GoldenStore(tmp_path)
        store.save("demo", {"schema": 1})

        def killed(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            store.save("demo", {"schema": 2})
        assert store.load("demo") == {"schema": 1}
        assert [path.name for path in tmp_path.iterdir()] == ["demo.json"]

    def test_missing_or_corrupt_loads_none(self, tmp_path):
        store = GoldenStore(tmp_path)
        assert store.load("absent") is None
        store.path_for("bad").parent.mkdir(parents=True, exist_ok=True)
        store.path_for("bad").write_text("{not json", encoding="utf-8")
        assert store.load("bad") is None


class TestVerifyStudy:
    def test_missing_golden_is_ok_but_flagged(self, small_study, tmp_path):
        comparison = verify_study(small_study, "absent", GoldenStore(tmp_path))
        assert comparison.status == "missing"
        assert comparison.ok
        assert "--update-goldens" in comparison.render()

    def test_round_trip_matches(self, small_study, tmp_path):
        store = GoldenStore(tmp_path)
        store.save("pin", golden_payload(small_study, "pin"))
        comparison = verify_study(small_study, "pin", store)
        assert comparison.status == "match"
        assert comparison.ok

    def test_perturbed_weekly_count_detected(self, small_study, tmp_path):
        """The acceptance criterion: one flipped weekly count must fail."""
        store = GoldenStore(tmp_path)
        payload = golden_payload(small_study, "pin")
        label, weekly = next(iter(small_study.main_series().items()))
        perturbed = weekly.counts.copy()
        perturbed[3] += 1
        payload["fingerprints"][
            f"series/{label}/weekly-counts"
        ] = fingerprint_array(perturbed)
        store.save("pin", payload)
        comparison = verify_study(small_study, "pin", store)
        assert comparison.status == "mismatch"
        assert not comparison.ok
        assert any(label in line for line in comparison.mismatches)

    def test_config_clash_is_not_silently_compared(self, small_study, tmp_path):
        store = GoldenStore(tmp_path)
        payload = golden_payload(small_study, "pin")
        payload["config_fingerprint"] = "not-this-config"
        store.save("pin", payload)
        comparison = verify_study(small_study, "pin", store)
        assert comparison.status == "config-mismatch"
        assert not comparison.ok


class TestPinnedConfigs:
    def test_small_pin_matches_the_test_fixture_config(self, small_study):
        assert config_fingerprint(small_pinned_config(0)) == config_fingerprint(
            small_study.config
        )

    def test_pinned_names(self):
        assert set(pinned_configs()) == {"seed0-full", "seed0-small"}


class TestCommittedGoldens:
    """The tier-1 drift guard: the committed pins must match a fresh run."""

    def test_seed0_small_golden_matches(self, small_study):
        comparison = verify_study(small_study, "seed0-small")
        assert comparison.status == "match", comparison.render()

    def test_committed_goldens_parse_and_pin_known_configs(self):
        store = GoldenStore()
        names = store.names()
        assert "seed0-small" in names
        assert "seed0-full" in names
        known = {
            name: config_fingerprint(config)
            for name, config in pinned_configs().items()
        }
        for name in names:
            payload = store.load(name)
            assert payload is not None
            assert payload["schema"] == 1
            assert payload["fingerprints"]
            if name in known:
                assert payload["config_fingerprint"] == known[name]

    def test_goldens_are_pretty_printed(self):
        store = GoldenStore()
        text = store.path_for("seed0-small").read_text(encoding="utf-8")
        assert text == json.dumps(
            json.loads(text), indent=2, sort_keys=True, ensure_ascii=False
        ) + "\n"
