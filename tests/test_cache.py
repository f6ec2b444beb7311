"""On-disk study cache: fingerprinting, round-trips, and failure fallback."""

from __future__ import annotations

import dataclasses
import datetime as dt
import os
import pickle
import re

import numpy as np
import pytest

from repro import obs
from repro.attacks.events import AttackClass
from repro.core.cache import (
    CACHE_DIR_ENV,
    StudyCache,
    config_fingerprint,
    default_cache_dir,
)
from repro.core.io import pack_result
from repro.core.study import Study, StudyConfig
from repro.net.plan import PlanConfig
from repro.observatories.base import OBSERVATION_COLUMNS, Observations
from repro.util.calendar import StudyCalendar
from repro.util.parallel import simulate


@pytest.fixture(scope="module")
def tiny_config() -> StudyConfig:
    return StudyConfig(
        seed=3,
        calendar=StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 5, 1)),
        dp_per_day=30.0,
        ra_per_day=25.0,
        plan=PlanConfig(seed=3, tail_as_count=60),
    )


@pytest.fixture(scope="module")
def tiny_result(tiny_config):
    return simulate(tiny_config, jobs=1)


class TestFingerprint:
    def test_stable_across_calls(self, tiny_config):
        assert config_fingerprint(tiny_config) == config_fingerprint(tiny_config)

    def test_stable_across_equal_configs(self, tiny_config):
        clone = dataclasses.replace(tiny_config)
        assert config_fingerprint(clone) == config_fingerprint(tiny_config)

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 4},
            {"dp_per_day": 31.0},
            {"ra_per_day": 26.0},
            {"aggregate_carpet": False},
            {"include_takedowns": False},
            {"paper_outages": False},
            {"plan": PlanConfig(seed=3, tail_as_count=61)},
            {
                "calendar": StudyCalendar(
                    dt.date(2019, 1, 1), dt.date(2019, 5, 2)
                )
            },
        ],
    )
    def test_any_config_change_changes_fingerprint(self, tiny_config, change):
        changed = dataclasses.replace(tiny_config, **change)
        assert config_fingerprint(changed) != config_fingerprint(tiny_config)

    def test_digest_is_hex_sha256(self, tiny_config):
        digest = config_fingerprint(tiny_config)
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex


class TestStoreLoad:
    def test_round_trip(self, tiny_config, tiny_result, tmp_path):
        cache = StudyCache(tmp_path)
        fingerprint = config_fingerprint(tiny_config)
        sinks, truth = tiny_result

        path = cache.store(fingerprint, sinks, truth)
        assert path is not None and path.is_file()

        loaded = cache.load(fingerprint)
        assert loaded is not None
        loaded_sinks, loaded_truth = loaded
        assert sorted(loaded_sinks) == sorted(sinks)
        for name, observations in sinks.items():
            restored = loaded_sinks[name]
            for column in ("day", "target", "attack_class", "vector_id",
                           "spoofed", "bps", "duration"):
                left = getattr(observations, column)
                right = getattr(restored, column)
                assert left.dtype == right.dtype, (name, column)
                assert np.array_equal(
                    left, right, equal_nan=left.dtype.kind == "f"
                ), (name, column)
        for attack_class in AttackClass:
            assert np.array_equal(
                loaded_truth[attack_class], truth[attack_class]
            )

    def test_miss_on_unknown_fingerprint(self, tmp_path):
        assert StudyCache(tmp_path).load("0" * 64) is None

    def test_miss_on_corrupted_file(self, tiny_config, tiny_result, tmp_path):
        cache = StudyCache(tmp_path)
        fingerprint = config_fingerprint(tiny_config)
        path = cache.store(fingerprint, *tiny_result)
        path.write_bytes(b"not an npz archive at all")
        assert cache.load(fingerprint) is None

    def test_miss_on_truncated_file(self, tiny_config, tiny_result, tmp_path):
        cache = StudyCache(tmp_path)
        fingerprint = config_fingerprint(tiny_config)
        path = cache.store(fingerprint, *tiny_result)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.load(fingerprint) is None

    def test_store_into_unwritable_root_returns_none(
        self, tiny_result, tmp_path
    ):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache dir should be")
        cache = StudyCache(blocker / "cache")
        assert cache.store("f" * 64, *tiny_result) is None

    def test_entries_and_clear(self, tiny_config, tiny_result, tmp_path):
        cache = StudyCache(tmp_path)
        assert cache.entries() == []
        assert cache.total_bytes() == 0
        cache.store(config_fingerprint(tiny_config), *tiny_result)
        cache.store("e" * 64, *tiny_result)
        assert len(cache.entries()) == 2
        assert cache.total_bytes() > 0
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_clear_removes_temp_files_of_killed_writers(
        self, tiny_config, tiny_result, tmp_path
    ):
        cache = StudyCache(tmp_path)
        cache.store(config_fingerprint(tiny_config), *tiny_result)
        (tmp_path / "study-abc123.tmp").write_bytes(b"torn entry")
        (tmp_path / "stats9x.tmp").write_text("{", encoding="utf-8")
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []

    def test_clear_removes_npz_entries_of_earlier_versions(
        self, tiny_config, tiny_result, tmp_path
    ):
        cache = StudyCache(tmp_path)
        cache.store(config_fingerprint(tiny_config), *tiny_result)
        (tmp_path / f"study-{'a' * 64}.npz").write_bytes(b"an old entry")
        assert len(cache.entries()) == 1
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []


def _replace_with_flipped(path, index: int) -> None:
    """Rename a copy of ``path`` with byte ``index`` flipped over it.

    A study may still map a cache entry, so an entry is never rewritten
    in place.  Flipping the low bit keeps a digit a digit.
    """
    data = bytearray(path.read_bytes())
    data[index] ^= 0x01
    copy = path.with_name(path.name + ".flipped")
    copy.write_bytes(bytes(data))
    os.replace(copy, path)


def _header_digit(data: bytes, sinks) -> int:
    """A nonzero digit that places a column: an offset in the JSON header
    (in the npz entries of earlier versions, a member's shape)."""
    match = re.search(rb"(\"offset\": |'shape': \()[1-9]", data)
    return match.end() - 1


def _column_byte(data: bytes, sinks) -> int:
    """A byte inside the target column of the largest feed."""
    column = max(sinks.values(), key=len).target.tobytes()
    return data.index(column[:64]) + 3


def _packed_bytes(result) -> dict[str, bytes]:
    return {key: column.tobytes() for key, column in pack_result(*result).items()}


class TestEntryIntegrity:
    """A damaged entry is a miss, wherever the damage is, and the study
    re-simulates the same bytes; a load never unpickles."""

    @pytest.mark.parametrize("locate", [_header_digit, _column_byte])
    def test_flipped_byte_is_a_miss(
        self, tiny_config, tiny_result, tmp_path, locate
    ):
        cache = StudyCache(tmp_path)
        fingerprint = config_fingerprint(tiny_config)
        path = cache.store(fingerprint, *tiny_result)
        _replace_with_flipped(path, locate(path.read_bytes(), tiny_result[0]))
        with obs.collecting() as registry:
            assert cache.load(fingerprint) is None
            study = Study(tiny_config, cache=True, cache_dir=tmp_path)
            sinks = study.observations
        truth = {c: study.ground_truth_weekly(c) for c in AttackClass}
        assert _packed_bytes((sinks, truth)) == _packed_bytes(tiny_result)
        assert registry.counter("cache.misses").value == 2
        reloaded = cache.load(fingerprint)
        assert reloaded is not None
        assert _packed_bytes(reloaded) == _packed_bytes(tiny_result)

    def test_load_never_unpickles(
        self, tiny_config, tiny_result, tmp_path, monkeypatch
    ):
        cache = StudyCache(tmp_path)
        fingerprint = config_fingerprint(tiny_config)
        cache.store(fingerprint, *tiny_result)

        def refuse(*args, **kwargs):
            raise AssertionError("a cache load unpickled")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "load", refuse)
        loaded = cache.load(fingerprint)
        assert loaded is not None
        assert _packed_bytes(loaded) == _packed_bytes(tiny_result)


class TestReadOnlyColumns:
    """Observations are immutable: every column is read-only."""

    @staticmethod
    def _assert_read_only(observations: Observations) -> None:
        for name, _ in OBSERVATION_COLUMNS:
            column = getattr(observations, name)
            with pytest.raises(ValueError, match="read-only"):
                column[:1] = column[:1]

    def test_simulated_merged_and_loaded_columns(
        self, tiny_config, tiny_result, tmp_path
    ):
        sinks, truth = tiny_result
        cache = StudyCache(tmp_path)
        fingerprint = config_fingerprint(tiny_config)
        cache.store(fingerprint, sinks, truth)
        loaded, _ = cache.load(fingerprint)
        for name, observations in sinks.items():
            self._assert_read_only(observations)
            self._assert_read_only(Observations.merge([observations, observations]))
            self._assert_read_only(loaded[name])

    def test_constructed_columns(self):
        observations = Observations(
            "X", [0, 1], [3, 4], [0, 0], [0, 0], [True, False], [1.0, 2.0]
        )
        self._assert_read_only(observations)

    def test_arrays_stay_writable_for_their_owner(self):
        arrays = {
            name: np.zeros(2, dtype=dtype) for name, dtype in OBSERVATION_COLUMNS
        }
        observations = Observations.from_arrays("X", arrays)
        self._assert_read_only(observations)
        arrays["target"][1] = 7
        assert observations.target[1] == 7


class TestEnvironment:
    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        assert StudyCache().root == tmp_path / "custom"

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"


class TestActivityStats:
    """The ``cache.*`` counters: every lookup and store records into the
    caller's metrics context, and a load writes nothing to disk."""

    @staticmethod
    def _counts(registry) -> dict[str, int]:
        names = ("hits", "misses", "stores", "bytes_read", "bytes_written")
        return {name: registry.counter(f"cache.{name}").value for name in names}

    def test_fresh_cache_reports_zeros(self, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        with obs.collecting() as registry:
            assert cache.load("0" * 64) is None
        assert self._counts(registry) == {
            "hits": 0,
            "misses": 1,
            "stores": 0,
            "bytes_read": 0,
            "bytes_written": 0,
        }
        assert cache.entries() == [] and cache.total_bytes() == 0
        assert not cache.root.exists()  # a miss creates nothing

    def test_cold_then_warm_run_records_miss_then_hit(
        self, tiny_config, tmp_path
    ):
        """A cold study records one miss and one store, the warm rerun one
        hit, and the hit leaves every file in the cache untouched."""
        cache_dir = tmp_path / "cache"
        with obs.collecting() as registry:
            Study(tiny_config, cache=True, cache_dir=cache_dir).observations
        cold = self._counts(registry)
        assert (cold["hits"], cold["misses"], cold["stores"]) == (0, 1, 1)
        assert cold["bytes_written"] > 0
        assert cold["bytes_read"] == 0

        def files() -> dict[str, int]:
            return {path.name: path.stat().st_mtime_ns for path in cache_dir.iterdir()}

        before = files()
        with obs.collecting() as registry:
            Study(tiny_config, cache=True, cache_dir=cache_dir).observations
        warm = self._counts(registry)
        assert (warm["hits"], warm["misses"], warm["stores"]) == (1, 0, 0)
        assert warm["bytes_read"] == cold["bytes_written"]
        assert files() == before
        assert list(before) == [StudyCache(cache_dir).entries()[0].name]

    def test_clear_resets_stats(self, tiny_config, tiny_result, tmp_path):
        """``clear`` also deletes the ``stats.json`` earlier versions kept."""
        cache = StudyCache(tmp_path)
        cache.store(config_fingerprint(tiny_config), *tiny_result)
        (tmp_path / "stats.json").write_text('{"hits": 3}', encoding="utf-8")
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []


class TestStudyCacheIntegration:
    def test_second_study_hits_the_cache(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """A warm run must serve observations without simulating at all."""
        first = Study(tiny_config, cache=True, cache_dir=tmp_path)
        first_sinks = first.observations
        assert len(StudyCache(tmp_path).entries()) == 1

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache hit expected; simulate() was called")

        monkeypatch.setattr("repro.core.study.simulate", boom)
        second = Study(tiny_config, cache=True, cache_dir=tmp_path)
        second_sinks = second.observations
        assert sorted(second_sinks) == sorted(first_sinks)
        for name in first_sinks:
            assert np.array_equal(
                second_sinks[name].target, first_sinks[name].target
            )
        # Ground truth rides along with the cached payload.
        for attack_class in AttackClass:
            assert np.array_equal(
                second.ground_truth_weekly(attack_class),
                first.ground_truth_weekly(attack_class),
            )

    def test_config_change_invalidates(
        self, tiny_config, tmp_path, monkeypatch
    ):
        Study(tiny_config, cache=True, cache_dir=tmp_path).observations

        called = []
        real_simulate = simulate

        def spying(*args, **kwargs):
            called.append(True)
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr("repro.core.study.simulate", spying)
        changed = dataclasses.replace(tiny_config, seed=tiny_config.seed + 1)
        Study(changed, cache=True, cache_dir=tmp_path).observations
        assert called, "changed config must re-simulate, not hit the cache"
        assert len(StudyCache(tmp_path).entries()) == 2

    def test_cache_false_never_touches_disk(self, tiny_config, tmp_path):
        Study(tiny_config, cache=False, cache_dir=tmp_path).observations
        assert StudyCache(tmp_path).entries() == []

    def test_corrupted_entry_falls_back_to_simulation(
        self, tiny_config, tmp_path
    ):
        study = Study(tiny_config, cache=True, cache_dir=tmp_path)
        study.observations
        [entry] = StudyCache(tmp_path).entries()
        entry.write_bytes(b"garbage")
        fallback = Study(tiny_config, cache=True, cache_dir=tmp_path)
        sinks = fallback.observations  # must not raise
        assert sorted(sinks) == sorted(study.observations)
