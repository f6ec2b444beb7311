"""Honeypot observatory models (macro level).

A honeypot platform observes a reflection-amplification attack only when the
attacker's reflector list happens to include its sensors — the generator
pre-draws that selection per event (with per-platform base rates and vector
affinities).  On top of selection, the platform's own detection threshold
must be met by the packets arriving at its sensors (paper Table 2):

=============  ===========================================  ========  ===========
Platform       Flow identifier                              Timeout   Threshold
=============  ===========================================  ========  ===========
AmpPot         src IP, src port, dst IP, dst port           60 min    >= 100 pkts
Hopscotch      src IP, dst IP, dst port                     15 min    >= 5 pkts
NewKid         src prefix, dst IP, [dst port]               1 min     >= 5 pkts
                                                                      (>= 2 ports
                                                                      multi-proto)
=============  ===========================================  ========  ===========

Carpet-bombing events are recorded per RIR allocation block touched by the
attacked prefix (the Appendix-I aggregation: one campaign spanning many
allocation blocks is many recorded attacks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.events import AttackClass
from repro.attacks.vectors import VECTORS
from repro.net.addr import prefix_of
from repro.net.rir import RirRegistry
from repro.observatories.base import Observations, Observatory, VisibilityNoise


@dataclass(frozen=True)
class HoneypotSpec:
    """Static platform parameters (paper Table 2)."""

    key: str
    name: str
    sensor_count: int
    responding_count: int
    flow_identifier: str
    timeout_s: float
    min_packets: int
    #: vector names the platform's protocol emulations support.
    supported_vectors: frozenset[str]
    #: NewKid's multi-protocol rule: needs >= 2 destination ports.
    multi_port_rule: bool = False


#: Platform specifications from the paper's Table 2.
AMPPOT_SPEC = HoneypotSpec(
    key="amppot",
    name="AmpPot",
    sensor_count=70,
    responding_count=30,
    flow_identifier="src IP, src port, dst IP, dst port",
    timeout_s=60 * 60.0,
    min_packets=100,
    supported_vectors=frozenset(
        {"DNS", "NTP", "CHARGEN", "QOTD", "SSDP", "RPC", "mDNS", "SNMP"}
    ),
)
HOPSCOTCH_SPEC = HoneypotSpec(
    key="hopscotch",
    name="Hopscotch",
    sensor_count=65,
    responding_count=65,
    flow_identifier="src IP, dst IP, dst port",
    timeout_s=15 * 60.0,
    min_packets=5,
    supported_vectors=frozenset(
        {"DNS", "NTP", "CLDAP", "SSDP", "QOTD", "RPC", "CHARGEN", "SNMP"}
    ),
)
NEWKID_SPEC = HoneypotSpec(
    key="newkid",
    name="NewKid",
    sensor_count=1,
    responding_count=1,
    flow_identifier="src prefix, dst IP, [dst port]",
    timeout_s=60.0,
    min_packets=5,
    supported_vectors=frozenset({"DNS", "NTP", "CLDAP", "SSDP", "CHARGEN", "QOTD"}),
    multi_port_rule=True,
)


class HoneypotPlatform(Observatory):
    """One honeypot platform converting ground truth into observations."""

    reported_classes = (AttackClass.REFLECTION_AMPLIFICATION,)

    def __init__(
        self,
        spec: HoneypotSpec,
        rng: np.random.Generator,
        rir: RirRegistry,
        *,
        aggregate_carpet: bool = True,
        request_pps_median: float = 1.2,
        request_pps_sigma: float = 1.0,
        max_carpet_records: int = 48,
        noise: VisibilityNoise | None = None,
    ) -> None:
        self.spec = spec
        self.key = spec.key
        self.name = spec.name
        self.rir = rir
        self.aggregate_carpet = aggregate_carpet
        self.request_pps_median = request_pps_median
        self.request_pps_sigma = request_pps_sigma
        self.max_carpet_records = max_carpet_records
        self.noise = noise
        self._rng = rng
        self._supported_ids = np.asarray(
            [
                index
                for index, vector in enumerate(VECTORS)
                if vector.name in spec.supported_vectors
            ],
            dtype=np.int16,
        )
        # Per-batch invariants, hoisted out of observe(): vector support as
        # an O(1) lookup table (cheaper than np.isin per batch) and the
        # log of the request-rate median.
        self._supported_lut = np.zeros(len(VECTORS), dtype=bool)
        self._supported_lut[self._supported_ids] = True
        self._log_request_pps_median = np.log(self.request_pps_median)

    def observe(self, batch) -> Observations:
        days = batch.days
        mask = (
            batch.is_reflection
            & batch.hp_selected_mask(self.key)
            & self._supported_lut[batch.vector_id]
        )
        if self.outages:
            mask &= ~self.outage_mask(days)
        if not mask.any():
            return Observations(self.name)
        indices = np.flatnonzero(mask)

        # Per-flow packet counts at the sensors: attacker request rate per
        # reflector times attack duration, Poisson-sampled.
        rate = self._rng.lognormal(
            mean=self._log_request_pps_median,
            sigma=self.request_pps_sigma,
            size=len(indices),
        )
        expected = rate * batch.duration[indices]
        packets = self._rng.poisson(expected)
        detected = packets >= self.spec.min_packets
        if self.noise is not None:
            factors = self.noise.factors_for(days[indices] // 7)
            detected &= self._rng.random(len(indices)) < factors
        # NewKid's multi-port rule (>= 2 dst ports for multi-protocol
        # attacks) is always satisfied here: multi-vector events use two
        # service ports by construction, mono-vector events fall under the
        # mono-protocol threshold.
        hits = indices[detected]
        if len(hits) == 0:
            return Observations(self.name)

        carpet = batch.carpet[hits]
        plain = hits[~carpet]
        chunks = [
            (
                days[plain],
                batch.target[plain],
                batch.attack_class[plain],
                batch.vector_id[plain],
                batch.spoofed[plain],
                batch.bps[plain],
                batch.duration[plain],
            )
        ]
        for index in hits[carpet]:
            chunks.append(
                self._carpet_records(batch, int(index), int(days[index]))
            )
        columns = [np.concatenate(parts) for parts in zip(*chunks)]
        # Carpet expansions follow the plain hits of every day; a stable
        # day sort restores the non-decreasing day order downstream
        # consumers rely on (and keeps within-day record order unchanged).
        order = np.argsort(columns[0], kind="stable")
        return Observations(self.name, *(column[order] for column in columns))

    def _carpet_records(self, batch, index: int, day: int) -> tuple:
        """Columns of one carpet event: one record per allocation block."""
        prefix = prefix_of(int(batch.target[index]), int(batch.carpet_prefix_len[index]))
        if self.aggregate_carpet:
            blocks = self.rir.blocks_in(prefix)[: self.max_carpet_records]
            if blocks:
                targets = []
                for block in blocks:
                    low = max(prefix.first, block.prefix.first)
                    high = min(prefix.last, block.prefix.last)
                    targets.append(int(self._rng.integers(low, high + 1)))
            else:
                targets = [int(batch.target[index])]
        else:
            # Ablation: no prefix aggregation — every attacked IP that hit a
            # sensor is its own record.
            spread = int(
                min(
                    prefix.size,
                    self.max_carpet_records,
                    1 + self._rng.poisson(12.0),
                )
            )
            targets = [
                int(self._rng.integers(prefix.first, prefix.last + 1))
                for _ in range(spread)
            ]
        count = len(targets)
        return (
            np.full(count, day, dtype=np.int32),
            np.asarray(targets, dtype=np.int64),
            np.full(count, batch.attack_class[index], dtype=np.int8),
            np.full(count, batch.vector_id[index], dtype=np.int16),
            np.full(count, batch.spoofed[index], dtype=bool),
            np.full(count, batch.bps[index], dtype=np.float64),
            np.full(count, batch.duration[index], dtype=np.float64),
        )
