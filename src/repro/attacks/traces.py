"""Packet-trace synthesis for micro-level detector validation.

The macro observatory models apply detection thresholds analytically; these
helpers generate telescope packet streams (backscatter, ICMP backscatter
and scan noise) so the packet-level RSDoS detector
(:mod:`repro.observatories.rsdos`) can be exercised and compared against
the telescopes' analytic rule.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

import numpy as np

from repro.net.addr import Prefix
from repro.traffic.packet import (
    FLAG_ACK,
    FLAG_RST,
    FLAG_SYN,
    ICMP,
    TCP,
    Packet,
)


def _poisson_arrivals(
    rng: np.random.Generator, rate: float, start: float, duration: float
) -> np.ndarray:
    """Sorted Poisson arrival times in ``[start, start + duration)``."""
    if rate <= 0 or duration <= 0:
        return np.empty(0)
    count = rng.poisson(rate * duration)
    return start + np.sort(rng.random(count)) * duration


def backscatter_trace(
    rng: np.random.Generator,
    victim: int,
    telescope_prefixes: tuple[Prefix, ...],
    attack_pps: float,
    duration: float,
    *,
    start: float = 0.0,
    response_ratio: float = 1.0,
    syn_ack_share: float = 0.8,
) -> list[Packet]:
    """Backscatter from an RSDoS attack as seen by a telescope.

    The victim replies to randomly spoofed sources; the telescope receives
    the fraction of replies whose spoofed address falls inside its
    monitored prefixes.  The caller passes the *telescope-local* view by
    pre-scaling: packets are generated at rate
    ``attack_pps x response_ratio x share``.
    """
    share = sum(prefix.size for prefix in telescope_prefixes) / float(1 << 32)
    arrivals = _poisson_arrivals(
        rng, attack_pps * response_ratio * share, start, duration
    )
    packets: list[Packet] = []
    for timestamp in arrivals:
        prefix = telescope_prefixes[int(rng.integers(len(telescope_prefixes)))]
        destination = prefix.network + int(rng.integers(prefix.size))
        if rng.random() < syn_ack_share:
            flags = FLAG_SYN | FLAG_ACK
        else:
            flags = FLAG_RST
        packets.append(
            Packet(
                timestamp=float(timestamp),
                src_ip=victim,
                dst_ip=destination,
                protocol=TCP,
                src_port=int(rng.choice([80, 443, 22, 8080])),
                dst_port=int(rng.integers(1024, 65536)),
                size=114,
                tcp_flags=flags,
            )
        )
    return packets


def scan_trace(
    rng: np.random.Generator,
    telescope_prefixes: tuple[Prefix, ...],
    scanner: int,
    packet_count: int,
    duration: float,
    *,
    start: float = 0.0,
) -> list[Packet]:
    """Background-radiation scan packets (unsolicited SYNs).

    These must *not* be counted as backscatter by the RSDoS detector.
    """
    arrivals = start + np.sort(rng.random(packet_count)) * duration
    packets: list[Packet] = []
    for timestamp in arrivals:
        prefix = telescope_prefixes[int(rng.integers(len(telescope_prefixes)))]
        destination = prefix.network + int(rng.integers(prefix.size))
        packets.append(
            Packet(
                timestamp=float(timestamp),
                src_ip=scanner,
                dst_ip=destination,
                protocol=TCP,
                src_port=int(rng.integers(1024, 65536)),
                dst_port=int(rng.choice([22, 23, 80, 443, 3389])),
                size=60,
                tcp_flags=FLAG_SYN,
            )
        )
    return packets


def icmp_backscatter_trace(
    rng: np.random.Generator,
    victim: int,
    telescope_prefixes: tuple[Prefix, ...],
    rate_at_telescope: float,
    duration: float,
    *,
    start: float = 0.0,
) -> list[Packet]:
    """ICMP (port-unreachable style) backscatter at a telescope-local rate."""
    arrivals = _poisson_arrivals(rng, rate_at_telescope, start, duration)
    packets: list[Packet] = []
    for timestamp in arrivals:
        prefix = telescope_prefixes[int(rng.integers(len(telescope_prefixes)))]
        destination = prefix.network + int(rng.integers(prefix.size))
        packets.append(
            Packet(
                timestamp=float(timestamp),
                src_ip=victim,
                dst_ip=destination,
                protocol=ICMP,
                size=90,
            )
        )
    return packets


def merge_traces(*traces: Iterable[Packet]) -> Iterator[Packet]:
    """Merge already-sorted packet streams into one sorted stream."""
    return heapq.merge(*traces, key=lambda packet: packet.timestamp)
