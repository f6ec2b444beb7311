"""Flat column mappings of observatory records.

A ``{key: array}`` mapping packs many observatories' records for binary
storage; :func:`pack_result` adds the weekly ground truth, the one
simulation-result layout that the columnar file format of
:mod:`repro.core.shardio` stores, for the on-disk study cache
(:mod:`repro.core.cache`) and the shard transport alike.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.events import AttackClass
from repro.observatories.base import OBSERVATION_COLUMNS, Observations

#: Separator in flat column keys: ``obs::<observatory>::<column>``.
_KEY_SEP = "::"
_OBS_PREFIX = "obs"
#: Key prefix of the weekly ground-truth columns: ``truth::<class>``.
_TRUTH_PREFIX = "truth::"


def pack_observations(
    sinks: dict[str, Observations]
) -> dict[str, np.ndarray]:
    """Flatten per-observatory records into one ``{key: array}`` mapping.

    Keys are ``obs::<observatory>::<column>``.
    """
    items: dict[str, np.ndarray] = {}
    for name, observations in sinks.items():
        if _KEY_SEP in name:
            raise ValueError(f"observatory name may not contain {_KEY_SEP!r}: {name!r}")
        for column, _ in OBSERVATION_COLUMNS:
            items[f"{_OBS_PREFIX}{_KEY_SEP}{name}{_KEY_SEP}{column}"] = getattr(
                observations, column
            )
    return items


def unpack_observations(
    items: dict[str, np.ndarray],
) -> dict[str, Observations]:
    """Rebuild per-observatory records from :func:`pack_observations` keys.

    Unrelated keys are ignored.
    """
    columns: dict[str, dict[str, np.ndarray]] = {}
    for key in items:
        parts = key.split(_KEY_SEP)
        if len(parts) != 3 or parts[0] != _OBS_PREFIX:
            continue
        _, name, column = parts
        columns.setdefault(name, {})[column] = items[key]
    return {
        name: Observations.from_arrays(name, arrays)
        for name, arrays in columns.items()
    }


def pack_result(
    sinks: dict[str, Observations], ground_truth: dict[AttackClass, np.ndarray]
) -> dict[str, np.ndarray]:
    """Flatten one simulation result: :func:`pack_observations`, then one
    float64 weekly ground-truth column per attack class."""
    items = pack_observations(sinks)
    for attack_class, weekly in ground_truth.items():
        items[f"{_TRUTH_PREFIX}{int(attack_class)}"] = np.asarray(
            weekly, dtype=np.float64
        )
    return items


def unpack_result(
    columns: dict[str, np.ndarray],
) -> tuple[dict[str, Observations], dict[AttackClass, np.ndarray]]:
    """Rebuild ``(sinks, ground_truth)`` from :func:`pack_result` keys.

    Columns are wrapped, not copied; a missing ground-truth column raises
    ``KeyError``.
    """
    sinks = unpack_observations(columns)
    ground_truth = {
        attack_class: np.asarray(
            columns[f"{_TRUTH_PREFIX}{int(attack_class)}"], dtype=np.float64
        )
        for attack_class in AttackClass
    }
    return sinks, ground_truth
