"""Traffic substrate: packet records and rate estimation.

These primitives back the micro-level (packet-stream) RSDoS detector of
the telescopes (paper Appendix J, :mod:`repro.observatories.rsdos`).
"""

from repro.traffic.packet import ICMP, TCP, UDP, Packet, protocol_name
from repro.traffic.rates import SlidingRate

__all__ = [
    "Packet",
    "TCP",
    "UDP",
    "ICMP",
    "protocol_name",
    "SlidingRate",
]
