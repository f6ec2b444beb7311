"""Data interchange: observatory records as CSV and flat column mappings.

The analysis toolkit is simulation-agnostic — these helpers let a real
attack feed (daily attack records) flow into the same pipeline, and let
simulation output leave it.

Formats:

* **records CSV** — one attack record per line:
  ``day,target,attack_class,vector,spoofed,bps,duration``.  ``day`` is a
  0-based study-day index, ``target`` a dotted-quad IPv4 address,
  ``vector`` a catalogue name (see :mod:`repro.attacks.vectors`);
  ``duration`` (seconds) may be empty for feeds that do not report it.
* **flat column mappings** — ``{key: array}`` mappings packing many
  observatories' records for binary storage; :func:`pack_result` adds the
  weekly ground truth, the one simulation-result layout that the columnar
  file format of :mod:`repro.core.shardio` stores, for the on-disk study
  cache (:mod:`repro.core.cache`) and the shard transport alike.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.attacks.events import AttackClass
from repro.attacks.vectors import VECTORS, vector_id
from repro.net.addr import format_ip, parse_ip
from repro.observatories.base import OBSERVATION_COLUMNS, Observations

_RECORD_FIELDS = ("day", "target", "attack_class", "vector", "spoofed", "bps", "duration")

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


def observations_to_csv(observations: Observations, path: str | Path) -> Path:
    """Write attack records to a CSV file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_FIELDS)
        for i in range(len(observations)):
            duration = float(observations.duration[i])
            writer.writerow(
                [
                    int(observations.day[i]),
                    format_ip(int(observations.target[i])),
                    AttackClass(int(observations.attack_class[i])).label,
                    VECTORS[int(observations.vector_id[i])].name,
                    int(observations.spoofed[i]),
                    f"{float(observations.bps[i]):.0f}",
                    "" if np.isnan(duration) else f"{duration:.1f}",
                ]
            )
    return path


def observations_from_csv(path: str | Path, name: str | None = None) -> Observations:
    """Read attack records from a CSV file (format of
    :func:`observations_to_csv`)."""
    path = Path(path)
    days: list[int] = []
    targets: list[int] = []
    classes: list[int] = []
    vectors: list[int] = []
    spoofed: list[bool] = []
    bps: list[float] = []
    durations: list[float] = []
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        # "duration" is optional for feeds that do not report it.
        missing = set(_RECORD_FIELDS) - {"duration"} - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"records CSV missing columns: {sorted(missing)}")
        for row in reader:
            days.append(int(row["day"]))
            targets.append(parse_ip(row["target"]))
            classes.append(_class_from_label(row["attack_class"]))
            vectors.append(vector_id(row["vector"]))
            spoofed.append(bool(int(row["spoofed"])))
            bps.append(float(row["bps"]))
            raw_duration = row.get("duration", "")
            durations.append(float(raw_duration) if raw_duration else float("nan"))

    # Records must be day-sorted; a stable sort keeps the file order within
    # each day.
    order = np.argsort(np.asarray(days, dtype=np.int32), kind="stable")
    columns = (days, targets, classes, vectors, spoofed, bps, durations)
    return Observations(
        name or path.stem, *(np.asarray(column)[order] for column in columns)
    )


def _class_from_label(label: str) -> int:
    for attack_class in AttackClass:
        if attack_class.label == label:
            return int(attack_class)
    raise ValueError(f"unknown attack class label: {label!r}")
