"""Byte pins for every observatory's records.

The goldens hash weekly counts, and ``tests/test_section7_bytes.py``
hashes target-derived artifacts, so neither sees the ``bps``,
``duration``, ``vector_id`` or ``spoofed`` column of a record.  These
sha256 digests pin all seven :data:`OBSERVATION_COLUMNS` of every
observatory a shard runs (name, dtype, length and raw bytes, in registry
order), both weekly ground-truth arrays and the ``observe.records``
counters.  A rewrite of an observatory's ``observe`` must return the same
rows with the same reported durations and reproduce every digest.

The cases reuse four shards of ``tests/test_generator_bytes.py``: the
first small-window shard (the IXP's January-2019 outage), a middle one
(ORION's 2019H2 outage), the stressed 16-week window (carpet-heavy
honeypot expansion) and the scripted SSDP wave.  Three more cover the
paths no baseline config reaches: the cloud provider's truncated
durations, the honeypots' per-IP carpet records with aggregation off, and
the tuned IXP and Netscout of the ``blackholing-aggressive`` what-if.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.counterfactual.presets import whatif_preset
from repro.observatories.base import OBSERVATION_COLUMNS
from repro.obs import collecting
from repro.scenarios import scenario_presets
from repro.sweep import expand, preset
from repro.util.parallel import generate_shard, run_shard
from tests.test_generator_bytes import CASES as GENERATOR_CASES


def _cell(spec, label: str):
    """The config of one cell of a sweep spec, by its describe() label."""
    for cell in expand(spec):
        if cell.describe() == label:
            return cell.config
    raise KeyError(label)


#: name -> (config factory, day range).
CASES = {
    **{
        name: GENERATOR_CASES[name]
        for name in ("small0-first", "small0-middle", "stressed-16w", "ssdp-wave")
    },
    "cloud-300M": (
        lambda: _cell(
            scenario_presets()["cloud-observatory"](), "threshold=300000000.0"
        ),
        (0, 28),
    ),
    "carpet-per-ip": (
        lambda: _cell(preset("ablation-carpet"), "carpet=per-ip"),
        (0, 28),
    ),
    # The what-if calendar starts on 2019-01-01, inside the IXP's
    # January outage, so its second shard is the first the tuned IXP sees.
    "blackholing-counterfactual": (
        lambda: _cell(
            whatif_preset("blackholing-aggressive").spec(),
            "seed=0 leg=counterfactual",
        ),
        (28, 56),
    ),
}

#: (records digest, counters digest) per case, taken before ``observe``
#: returned its records instead of appending them.
PINNED = {
    "small0-first": (
        "89c217a2365ada3b348212d9c6660c0e4bd2b9b0c242fac4a1ceb6042b674153",
        "923a796487198f4a3c89764b014bfbd93ddeea16557178b770a0228a659272e2",
    ),
    "small0-middle": (
        "e41e5943a4d032b6cbe38d4363f18326a618460d25ecd5af4fde9169927d383f",
        "35ee5bcc9ca84e47c450c6925e24e954a9cdf6d98653fb74dbb7fd839a2b6409",
    ),
    "stressed-16w": (
        "1ef22abd6d92cdf02ce00458a551e062b11043e9410f08d39bc134138b135fd7",
        "8e76f8ba561bd1df7f2f78e60d2e07b9394f2818b1e99fc0163240ffcfa55cb0",
    ),
    "ssdp-wave": (
        "a4d9245b277cef3c58137d707cadf045b6f9ded2b97d6ba79c03df27a911ca20",
        "61056592706f7357ae6073042350dfd5244556d7c7967b2ac0d7e07079dc70e6",
    ),
    "cloud-300M": (
        "6f7a71c8909a87c7b649f956d880ea0b9b5b14dfb54614ae16f48964b29582d3",
        "abb5ebae7abec502c1506b53d58fa0b628c4885a8ba4503d486448fa251e6f8c",
    ),
    "carpet-per-ip": (
        "70d9b70efcd0e158aec842b01d72b97c9ae5927232e7252afaf7fec0b0e34c01",
        "a96009a46e1028dd90eb1ead6d7fbb6509b712a3e8cfab87d5f8ca97d9589c8e",
    ),
    "blackholing-counterfactual": (
        "285c5d08c7c534a9d09737cd9ccfe666d1b61e671977465dbe35f953b800f7ec",
        "e329f196106afb5a4bc31f368d4d95e005b989f1a232dc96c84cadefaca7775f",
    ),
}


def records_digest(sinks, ground_truth) -> str:
    """sha256 over every observatory's columns, then the ground truth."""
    digest = hashlib.sha256()

    def update(name: str, values: np.ndarray) -> None:
        values = np.ascontiguousarray(values)
        digest.update(f"{name}:{values.dtype.str}:{len(values)}\n".encode())
        digest.update(values.tobytes())

    for observatory, observations in sinks.items():
        for column, _ in OBSERVATION_COLUMNS:
            update(f"{observatory}.{column}", getattr(observations, column))
    for attack_class, weekly in ground_truth.items():
        update(f"truth.{int(attack_class)}", weekly)
    return digest.hexdigest()


def counters_digest(snapshot: dict) -> str:
    """sha256 of the canonical JSON of the ``observe.records`` counters."""
    records = {
        key: value
        for key, value in snapshot["counters"].items()
        if key.startswith("observe.records")
    }
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def observed():
    out = {}
    for name, (factory, (start, stop)) in CASES.items():
        config = factory()
        with collecting() as registry:
            sinks, ground_truth = run_shard(config, start, stop)
        out[name] = (config, sinks, ground_truth, registry.snapshot())
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_are_pinned(observed, name):
    _, sinks, ground_truth, snapshot = observed[name]
    assert (
        records_digest(sinks, ground_truth),
        counters_digest(snapshot),
    ) == PINNED[name]


def test_cases_reach_the_guarded_branches(observed):
    first, middle = observed["small0-first"][1], observed["small0-middle"][1]
    assert len(first["IXP"]) == 0 and len(first["ORION"]) > 0
    assert len(middle["ORION"]) == 0 and len(middle["IXP"]) > 0
    # A carpet record's target is drawn inside the attacked prefix, so it
    # is not the ground truth's target.
    config, sinks, _, _ = observed["stressed-16w"]
    batch = generate_shard(config, *CASES["stressed-16w"][1])
    assert not np.isin(sinks["Hopscotch"].target, batch.target).all()
    # Without aggregation one carpet event becomes many per-IP records.
    hopscotch = observed["carpet-per-ip"][1]["Hopscotch"]
    assert len(np.unique(hopscotch.bps)) < len(hopscotch)
    # Mitigated attacks report the truncated duration, not the true one.
    config, sinks, _, _ = observed["cloud-300M"]
    truncated = sinks["Cloud"].duration == config.scenario.cloud.time_to_mitigate_s
    assert truncated.any()
    config, sinks, _, _ = observed["blackholing-counterfactual"]
    assert config.tuning is not None and len(sinks["IXP"]) > 0
