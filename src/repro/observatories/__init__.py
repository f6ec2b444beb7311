"""The ten observatory models of the paper (Table 2).

Two network telescopes (UCSD-NT, ORION) infer randomly-spoofed direct-path
attacks from backscatter with a Corsaro-style detector (Appendix J); three
honeypot platforms (Hopscotch, AmpPot, NewKid) observe reflection-
amplification attacks when selected as reflectors, with per-platform flow
identifiers and thresholds; and three industry flow monitors (Netscout
Atlas, Akamai Prolexic, IXP blackholing) observe attacks crossing their
customer footprints.

Each observatory sweeps a ground-truth
:class:`~repro.attacks.events.ShardBatch` and produces
:class:`~repro.observatories.base.Observations` — the per-platform attack
records the paper's analyses run on.
"""

from repro.observatories.base import Observations, Observatory, SeriesKey
from repro.observatories.carpet import CarpetAggregator, PrefixAttack
from repro.observatories.flowmon import (
    AkamaiProlexic,
    IxpBlackholing,
    NetscoutAtlas,
)
from repro.observatories.honeypot import HoneypotPlatform
from repro.observatories.registry import ObservatorySet, build_observatories
from repro.observatories.mitigation import MitigationInterference
from repro.observatories.rsdos import RSDoSAlert, RsdosDetector
from repro.observatories.telescope import NetworkTelescope

__all__ = [
    "Observatory",
    "Observations",
    "SeriesKey",
    "NetworkTelescope",
    "RsdosDetector",
    "RSDoSAlert",
    "HoneypotPlatform",
    "CarpetAggregator",
    "PrefixAttack",
    "NetscoutAtlas",
    "AkamaiProlexic",
    "IxpBlackholing",
    "ObservatorySet",
    "build_observatories",
    "MitigationInterference",
]
