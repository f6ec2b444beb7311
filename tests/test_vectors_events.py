"""Tests for the vector catalogue and attack-event model."""

import numpy as np
import pytest

from repro.attacks.events import (
    EVENT_COLUMNS,
    HP_BIT,
    OBSERVATORY_KEYS,
    AttackClass,
    ShardBatch,
)
from repro.attacks.vectors import (
    DP_VECTORS,
    EMERGING_RA_VECTORS,
    RA_VECTORS,
    VECTORS,
    VectorKind,
    vector_by_name,
    vector_id,
    vector_ids,
)
from tests.conftest import one_day_batch


class TestVectorCatalogue:
    def test_catalogue_layout(self):
        assert VECTORS[: len(RA_VECTORS)] == RA_VECTORS
        assert (
            VECTORS[len(RA_VECTORS) : len(RA_VECTORS) + len(DP_VECTORS)]
            == DP_VECTORS
        )
        assert VECTORS[len(RA_VECTORS) + len(DP_VECTORS) :] == EMERGING_RA_VECTORS

    def test_lookup_by_name(self):
        dns = vector_by_name("DNS")
        assert dns.kind is VectorKind.REFLECTION
        assert dns.port == 53
        assert VECTORS[vector_id("DNS")] is dns

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            vector_by_name("NOPE")

    def test_vector_ids_partition_catalogue(self):
        ra = vector_ids(VectorKind.REFLECTION)
        dp = vector_ids(VectorKind.DIRECT)
        assert sorted(ra + dp) == list(range(len(VECTORS)))

    def test_reflection_vectors_amplify(self):
        for vector in RA_VECTORS:
            assert vector.amplification > 1.0
        for vector in DP_VECTORS:
            assert vector.amplification == 1.0

    def test_known_amplification_factors(self):
        # Canonical values from Rossow (NDSS 2014).
        assert vector_by_name("NTP").amplification == pytest.approx(556.0)
        assert vector_by_name("DNS").amplification == pytest.approx(54.0)
        assert vector_by_name("Memcached").amplification >= 10_000

    def test_active_weights_positive(self):
        assert all(vector.weight > 0 for vector in RA_VECTORS + DP_VECTORS)

    def test_emerging_vectors_inactive_but_resolvable(self):
        # Weight 0 keeps them out of the default 2019-2023 mix without
        # perturbing the seeded draws of the active catalogue.
        assert all(vector.weight == 0 for vector in EMERGING_RA_VECTORS)
        tp240 = vector_by_name("TP240")
        assert tp240.amplification > 1000
        assert vector_by_name("SLP").port == 427


def _batch():
    return one_day_batch(
        3,
        day=5,
        attack_class=[0, 1, 1],
        vector_id=[10, 0, 1],
        hp_selected=[0, 1, 2],
    )


def _columns(n):
    """Every event column, ``n`` zeros each."""
    return {name: np.zeros(n, dtype=dtype) for name, dtype in EVENT_COLUMNS}


class TestDayBatch:
    """Masks and validation of a one-day :class:`ShardBatch`."""

    def test_masks(self):
        batch = _batch()
        assert batch.is_direct_path.tolist() == [True, False, False]
        assert batch.is_reflection.tolist() == [False, True, True]
        assert batch.is_rsdos.tolist() == [True, False, False]

    def test_hp_selected_mask(self):
        batch = _batch()
        assert batch.hp_selected_mask("hopscotch").tolist() == [False, True, False]
        assert batch.hp_selected_mask("amppot").tolist() == [False, False, True]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="attack_class length mismatch"):
            ShardBatch(
                days=np.zeros(3, dtype=np.int32),
                bias={key: np.ones(3) for key in OBSERVATORY_KEYS},
                **{**_columns(3), "attack_class": np.zeros(2, dtype=np.int8)},
            )

    def test_missing_bias_rejected(self):
        bias = {key: np.ones(1) for key in OBSERVATORY_KEYS if key != "ucsd"}
        with pytest.raises(ValueError, match="bias array missing"):
            ShardBatch(days=np.zeros(1, dtype=np.int32), bias=bias, **_columns(1))

    def test_unexpected_column_rejected(self):
        with pytest.raises(ValueError, match="unexpected columns"):
            ShardBatch(
                days=np.zeros(1, dtype=np.int32),
                bias={key: np.ones(1) for key in OBSERVATORY_KEYS},
                event_id=np.zeros(1, dtype=np.int64),
                **_columns(1),
            )


class TestAttackEvent:
    """Per-event constants: honeypot bits and class labels."""

    def test_hp_bit_layout(self):
        assert HP_BIT == {"hopscotch": 0, "amppot": 1, "newkid": 2}

    def test_attack_class_labels(self):
        assert AttackClass.DIRECT_PATH.label == "DP"
        assert AttackClass.REFLECTION_AMPLIFICATION.label == "RA"
