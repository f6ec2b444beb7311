"""Shared fixtures: a fast small-scale study and common substrate objects."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from repro.attacks.events import EVENT_COLUMNS, OBSERVATORY_KEYS, ShardBatch
from repro.core.golden import small_pinned_config
from repro.core.study import Study, StudyConfig
from repro.net.plan import PlanConfig, build_internet_plan
from repro.util.calendar import StudyCalendar
from repro.util.rng import RngFactory


def pytest_collection_modifyitems(items):
    """Auto-apply the ``tier1`` marker to tests not in a slower tier."""
    for item in items:
        if not any(item.iter_markers(name) for name in ("conformance", "slow")):
            item.add_marker(pytest.mark.tier1)


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory: pytest.TempPathFactory):
    """Redirect the study cache to a temp dir for the whole test session.

    Unit tests must never read from or write to the user's real cache
    (stale entries would mask simulation changes; runs would pollute the
    user's disk).  A guard asserts the real default location gained no
    entries during the run.
    """
    from repro.core import cache as cache_module

    with pytest.MonkeyPatch.context() as patcher:
        patcher.delenv(cache_module.CACHE_DIR_ENV, raising=False)
        real_root = cache_module.default_cache_dir()
    before = set(real_root.glob("study-*.npz")) if real_root.is_dir() else set()

    with pytest.MonkeyPatch.context() as patcher:
        patcher.setenv(
            cache_module.CACHE_DIR_ENV,
            str(tmp_path_factory.mktemp("repro-cache")),
        )
        yield

    after = set(real_root.glob("study-*.npz")) if real_root.is_dir() else set()
    leaked = after - before
    assert not leaked, f"tests wrote to the real cache dir {real_root}: {leaked}"

#: A ~69-week window (covers the 15-week baseline plus a year of trend).
SMALL_CALENDAR = StudyCalendar(dt.date(2019, 1, 1), dt.date(2020, 4, 30))


def small_study_config(seed: int = 0) -> StudyConfig:
    """A fast study configuration for integration tests.

    Delegates to :func:`repro.core.golden.small_pinned_config` so the
    tier-1 golden regression test pins the exact configuration the test
    session simulates anyway (one simulation, two uses).
    """
    config = small_pinned_config(seed)
    assert (config.calendar.start, config.calendar.end) == (
        SMALL_CALENDAR.start,
        SMALL_CALENDAR.end,
    )
    return config


def pack_targets(tuples) -> np.ndarray:
    """Sorted int64 target keys ``day << 32 | ip`` of (day, ip) tuples."""
    return np.array(sorted(day << 32 | ip for day, ip in tuples), dtype=np.int64)


def one_day_batch(
    n: int, *, day: int = 0, bias: float = 1.0, **columns
) -> ShardBatch:
    """A hand-built :class:`ShardBatch` of ``n`` events, all on ``day``.

    Keywords set event columns; scalars broadcast to every event.  Unset
    columns describe spoofed mono-vector direct-path attacks (vector 10,
    600 s at 1,000 pps from AS 64500) on consecutive targets, starting at
    midnight; every observatory bias is ``bias``.
    """
    values = {
        "attack_class": 0,
        "target": np.arange(n) + 10_000,
        "origin_asn": 64500,
        "start": day * 86400.0,
        "duration": 600.0,
        "pps": 1000.0,
        "bps": 1000.0 * 512,
        "vector_id": 10,
        "secondary_vector_id": -1,
        "carpet": False,
        "carpet_prefix_len": 0,
        "spoofed": True,
        "hp_selected": 0,
        **columns,
    }
    dtypes = dict(EVENT_COLUMNS)
    return ShardBatch(
        days=np.full(n, day, dtype=np.int32),
        bias={key: np.full(n, float(bias)) for key in OBSERVATORY_KEYS},
        **{
            name: np.broadcast_to(np.asarray(value, dtype=dtypes.get(name)), n).copy()
            for name, value in values.items()
        },
    )


@pytest.fixture(scope="session")
def small_study() -> Study:
    """A small, fully-run study shared across integration tests."""
    study = Study(small_study_config())
    study.observations  # run the simulation once
    return study


@pytest.fixture(scope="session")
def plan():
    """A small synthetic Internet plan."""
    return build_internet_plan(PlanConfig(seed=7, tail_as_count=60))


@pytest.fixture()
def rng_factory() -> RngFactory:
    """A deterministic RNG factory."""
    return RngFactory(seed=1234)


@pytest.fixture()
def rng(rng_factory):
    """A generic random stream for tests."""
    return rng_factory.stream("tests")
