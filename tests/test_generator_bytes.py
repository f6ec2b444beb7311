"""Byte pins for the ground-truth generator.

The goldens see a :class:`~repro.attacks.events.ShardBatch` only through
the observatories.  These sha256 digests pin the batch itself: the dtype
and raw bytes of ``days``, every :data:`EVENT_COLUMNS` entry and every
``bias`` column, plus the ``generate.*`` metrics the shard records.  A
rewrite of the generator's hot path must draw the same variates in the
same order and reproduce every digest.

The cases cover the first, a middle and the remainder shard of the small
pinned window; a weekly-sampler emergence cell; a scaled uniform-LUT
honeypot cell; a stressed 16-week window whose raised carpet,
multi-vector and avoidance probabilities and 500-slot victim pool wrap
the pool and fill the rare columns; and the scripted 2022 SSDP wave, the
one campaign with a vector focus, carpet flag and target AS.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import json

import numpy as np
import pytest

from repro.attacks.events import EVENT_COLUMNS, HP_BIT, OBSERVATORY_KEYS
from repro.attacks.generator import GeneratorConfig
from repro.core.golden import small_pinned_config
from repro.obs import collecting
from repro.scenarios import scenario_presets
from repro.sweep.spec import expand
from repro.util.calendar import StudyCalendar, calendar_for_weeks
from repro.util.parallel import generate_shard, plan_shards


def _cell(preset: str, label: str):
    """The config of one scenario-preset cell, by its describe() label."""
    for cell in expand(scenario_presets()[preset]()):
        if cell.describe() == label:
            return cell.config
    raise KeyError(label)


def _stressed():
    return dataclasses.replace(
        small_pinned_config(5),
        calendar=calendar_for_weeks(16),
        generator=GeneratorConfig(
            carpet_probability=0.2,
            multi_vector_probability=0.5,
            telescope_avoidance_probability=0.3,
            victim_pool_size=500,
        ),
    )


def _ssdp_wave():
    """17 weeks around the scripted SSDP wave (study days 35..76)."""
    return dataclasses.replace(
        small_pinned_config(0),
        calendar=StudyCalendar(dt.date(2022, 5, 2), dt.date(2022, 8, 29)),
    )


def _small_shard(index: int) -> tuple[int, int]:
    return plan_shards(small_pinned_config(0).calendar.n_days)[index]


#: name -> (config factory, day range).
CASES = {
    "small0-first": (lambda: small_pinned_config(0), _small_shard(0)),
    "small0-middle": (lambda: small_pinned_config(0), _small_shard(8)),
    "small0-last": (lambda: small_pinned_config(0), _small_shard(-1)),
    "emergence-TP240": (
        lambda: _cell("amplification-emergence", "vector=TP240"),
        (140, 168),
    ),
    "honeypot-x4-uniform": (
        lambda: _cell("honeypot-convergence", "scale=4.0 placement=uniform"),
        (0, 28),
    ),
    "stressed-16w": (_stressed, (0, 112)),
    "ssdp-wave": (_ssdp_wave, (28, 56)),
}

#: (columns digest, metrics digest) per case, taken before the generator's
#: hot path was rewritten.
PINNED = {
    "small0-first": (
        "df06b95fac8a82494afe1a175cb0991de6654e5a0b003da88891c017d563fcf7",
        "d067666441a0eec96c22a1e998edac0fa9814489329376a155c42e921b87de00",
    ),
    "small0-middle": (
        "514595fb45e53f3d2aba9397838af15fa47892a88d7f1cd71d66d8f59af973bd",
        "1dcd43c03d8bb396f16c0581864023dd7481228e67faceeb96cde4413744a0b5",
    ),
    "small0-last": (
        "c63910a09cab705f4ca6b974fb292a8ea48a5e4e582a5f8fbc9a0b88b49029e8",
        "64460d5c21a08458531b45ebf88d43a15d4aaec73dbdb80def54ddc51d7146f8",
    ),
    "emergence-TP240": (
        "f8ce7afe100fd6bcc9d3fed228bec326ddf50cd23bc58e110956b8d69ac71bc6",
        "1568a49f72415e41568e6531429783b78b4cdbd142d6db49aa50ad88c9321b33",
    ),
    "honeypot-x4-uniform": (
        "9b6dd76b738125ed289d22750215e52ba641bf5db0ac737746adc6660ec98399",
        "cfbee19048f53f159f12ce595ee64e985cf7b10039dade8fceab2b3f39f43d66",
    ),
    "stressed-16w": (
        "5b68b17397fa9743461a511466ce3709648afa8223effb519a1172b623415102",
        "b5fa8a8b46ba6f35134d99bd24e7cd272f0082dbaf9bf7a0e48218dfcc3e6744",
    ),
    "ssdp-wave": (
        "362cd2a2ecaac964826194cc55c1a4b12bc70c11e87f4cfd77d73f46128d4c3f",
        "bc1a2d8fa388cfec7868479b6cdb8c30a9083d33aeae341048003ace57d3c5b9",
    ),
}


def _columns(batch):
    yield "days", batch.days
    for name, _ in EVENT_COLUMNS:
        yield name, getattr(batch, name)
    for key in OBSERVATORY_KEYS:
        yield f"bias.{key}", batch.bias[key]


def columns_digest(batch) -> str:
    """sha256 over each column's name, dtype and raw bytes, in order."""
    digest = hashlib.sha256()
    for name, column in _columns(batch):
        column = np.ascontiguousarray(column)
        digest.update(f"{name}:{column.dtype.str}:{len(column)}\n".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def metrics_digest(snapshot: dict) -> str:
    """sha256 of the canonical JSON of the ``generate.*`` metrics."""
    generate = {
        kind: {
            key: value
            for key, value in values.items()
            if key.startswith("generate.")
        }
        for kind, values in snapshot.items()
    }
    return hashlib.sha256(json.dumps(generate, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def generated():
    out = {}
    for name, (factory, (start, stop)) in CASES.items():
        with collecting() as registry:
            batch = generate_shard(factory(), start, stop)
        out[name] = (batch, registry.snapshot())
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_shard_bytes_are_pinned(generated, name):
    batch, snapshot = generated[name]
    assert (columns_digest(batch), metrics_digest(snapshot)) == PINNED[name]


def test_cases_reach_the_guarded_branches(generated):
    batches = [batch for batch, _ in generated.values()]
    assert any((batch.secondary_vector_id >= 0).any() for batch in batches)
    assert any(batch.carpet.any() for batch in batches)
    assert any((batch.bias["ucsd"] == 0).any() for batch in batches)
    for bit in HP_BIT.values():
        assert any((batch.hp_selected & (1 << bit)).any() for batch in batches)
    counters = [snapshot["counters"] for _, snapshot in generated.values()]
    assert any("generate.campaign_events" in c for c in counters)
    assert any("generate.partner_events" in c for c in counters)
    # The scripted wave's events carry its fixed 4.0 Hopscotch bias.
    assert (generated["ssdp-wave"][0].bias["hopscotch"] == 4.0).any()
