"""Synthetic Internet address plan.

Real prefix-to-AS mappings and RIR delegation files are not redistributable,
so the study runs on a deterministic synthetic plan with the statistical
properties the paper's analyses depend on:

* a heavy-tailed distribution of attack-target attractiveness across ASes,
  with the heavy hitters labelled after the providers in the paper's
  Table 4 (OVH, Hetzner, Amazon, ...), so AS-attribution results are
  directly comparable;
* RIR allocation blocks that do not always coincide with announced
  prefixes, including more-specific announcements, so the Appendix-I
  carpet-bombing aggregation has real structure to work against;
* dedicated unused blocks for the two network telescopes with the paper's
  sizes (UCSD ≈12M addresses as a /9 + /10; ORION ≈500k as a /13);
* customer footprints for the industry vantage points (Netscout customer
  ASNs, Akamai Prolexic-routed prefixes, IXP member ASNs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.net.addr import Prefix, parse_ip
from repro.net.asn import ASInfo, ASKind, ASRegistry
from repro.net.rir import RIR_NAMES, RirRegistry
from repro.net.routing import RoutingTable
from repro.net.trie import PrefixTable
from repro.util.rng import RngFactory

#: Telescope blocks (unused address space, never allocated to ASes).
UCSD_TELESCOPE_PREFIXES = (
    Prefix(parse_ip("44.0.0.0"), 9),
    Prefix(parse_ip("44.128.0.0"), 10),
)
ORION_TELESCOPE_PREFIX = Prefix(parse_ip("73.0.0.0"), 13)

#: Heavy-hitter ASes from the paper's Table 4: (ASN, name, kind, weight).
#: Weights approximate the Table-4 target shares; the remaining mass goes
#: to the synthetic tail.
HEAVY_HITTERS: tuple[tuple[int, str, ASKind, float], ...] = (
    (16276, "OVH", ASKind.HOSTING, 18.80),
    (24940, "Hetzner", ASKind.HOSTING, 5.14),
    (16509, "Amazon", ASKind.HOSTING, 2.69),
    (8075, "Microsoft", ASKind.BUSINESS, 2.04),
    (396982, "Google", ASKind.HOSTING, 1.89),
    (13335, "Cloudflare", ASKind.HOSTING, 1.59),
    (4837, "China Unicom", ASKind.ISP, 1.58),
    (14061, "Digitalocean", ASKind.HOSTING, 1.36),
    (14586, "Nuclearfallout", ASKind.HOSTING, 1.23),
    (37963, "Alibaba", ASKind.BUSINESS, 1.21),
    (4134, "China Telecom", ASKind.ISP, 0.95),
)

#: Akamai Prolexic's scrubbing AS (real-world ASN, used as a label).
PROLEXIC_ASN = 32787

#: /8 blocks the allocator may carve (avoids reserved space and telescopes).
_USABLE_SLASH8 = [
    n for n in range(1, 224) if n not in {10, 44, 73, 100, 127, 169, 172, 192, 198}
]


@dataclass(frozen=True)
class PlanConfig:
    """Knobs for the synthetic plan.  Defaults give ≈460 ASes, ≈2600 routes."""

    seed: int = 0
    tail_as_count: int = 450
    #: first ASN used for synthetic tail ASes.
    tail_asn_base: int = 200_000
    #: share of allocations additionally announced as more-specifics.
    more_specific_share: float = 0.30
    #: share of ASes present at the modelled IXP.
    ixp_member_share: float = 0.35
    #: number of Netscout-contributing customer ASNs (ISPs + enterprises).
    netscout_customer_count: int = 280
    #: number of prefixes rerouted through Akamai Prolexic.
    akamai_customer_prefixes: int = 90


@dataclass
class InternetPlan:
    """The assembled synthetic Internet."""

    config: PlanConfig
    ases: ASRegistry
    rir: RirRegistry
    routing: RoutingTable
    ixp_member_asns: frozenset[int]
    netscout_customer_asns: frozenset[int]
    akamai_customers: PrefixTable[bool]
    _sampler: "TargetSampler" = field(repr=False)

    # -- vantage-point membership -------------------------------------------

    def akamai_customer_mask(self, addresses: np.ndarray) -> np.ndarray:
        """Which addresses lie in a prefix rerouted through Prolexic."""
        return self.akamai_customers.covers_many(addresses)

    # -- target sampling -------------------------------------------------------

    def targets_from_uniforms(
        self, uniforms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The targets plus origin ASNs that a ``(2, n)`` uniform block picks.

        Row 0 picks a prefix, row 1 the offset inside it; every sampled
        prefix is announced by exactly the AS it was allocated to — so the
        origin comes for free, without any per-address LPM lookup.  Fed
        ``rng.random((2, n))``, it draws ``n`` targets, heavy-tailed across
        ASes by their target weights.
        """
        return self._sampler.from_uniforms(uniforms)

    def origin_as(self, address: int) -> int | None:
        """Origin ASN of an address (routing LPM)."""
        return self.routing.origin_as(address)


class TargetSampler:
    """Weighted sampler of target addresses over announced allocations.

    Each AS's ``target_weight`` is split across its prefixes in proportion
    to prefix size; sampling picks a prefix by cumulative weight and then a
    uniform offset inside it.
    """

    def __init__(self, ases: ASRegistry) -> None:
        bases: list[int] = []
        sizes: list[int] = []
        asns: list[int] = []
        weights: list[float] = []
        for info in ases:
            if info.target_weight <= 0 or not info.prefixes:
                continue
            total = info.address_count
            for prefix in info.prefixes:
                bases.append(prefix.network)
                sizes.append(prefix.size)
                asns.append(info.asn)
                weights.append(info.target_weight * prefix.size / total)
        if not bases:
            raise ValueError("no targetable prefixes in plan")
        self._bases = np.asarray(bases, dtype=np.int64)
        self._sizes = np.asarray(sizes, dtype=np.int64)
        self._asns = np.asarray(asns, dtype=np.int64)
        cumulative = np.cumsum(np.asarray(weights, dtype=np.float64))
        self._cumulative = cumulative / cumulative[-1]

    def from_uniforms(self, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Addresses and owning ASNs for a ``(2, n)`` block of uniforms.

        Row 0 picks a prefix by cumulative weight, row 1 a uniform offset
        inside it.
        """
        picks = self._cumulative.searchsorted(uniforms[0], side="right")
        offsets = (uniforms[1] * self._sizes[picks]).astype(np.int64)
        return self._bases[picks] + offsets, self._asns[picks]


def _carve(cursor: list[int], length: int) -> Prefix:
    """Carve the next aligned /``length`` block from the usable space."""
    size = 1 << (32 - length)
    aligned = (cursor[0] + size - 1) & ~(size - 1)
    while True:
        slash8 = aligned >> 24
        if slash8 >= 224:
            raise RuntimeError("synthetic address space exhausted")
        if slash8 in _USABLE_SLASH8_SET:
            break
        aligned = (slash8 + 1) << 24
        aligned = (aligned + size - 1) & ~(size - 1)
    cursor[0] = aligned + size
    return Prefix(aligned, length)


_USABLE_SLASH8_SET = set(_USABLE_SLASH8)


def build_internet_plan(config: PlanConfig | None = None) -> InternetPlan:
    """Build the deterministic synthetic Internet for a given config."""
    config = config or PlanConfig()
    rng = RngFactory(config.seed).stream("net/plan")

    ases = ASRegistry()
    rir = RirRegistry()
    routing = RoutingTable()
    cursor = [_USABLE_SLASH8[0] << 24]

    def allocate(info: ASInfo, length: int) -> Prefix:
        prefix = _carve(cursor, length)
        rir_name = RIR_NAMES[int(rng.integers(len(RIR_NAMES)))]
        rir.allocate(prefix, rir_name, info.asn)
        info.prefixes.append(prefix)
        routing.announce(prefix, info.asn)
        if rng.random() < config.more_specific_share and length <= 26:
            # Announce two more-specific halves alongside the covering route,
            # giving the carpet-bombing aggregation nested candidates.
            for half in prefix.subnets(length + 1):
                routing.announce(half, info.asn)
        return prefix

    # Heavy hitters: multiple mid-size allocations each.
    for asn, name, kind, weight in HEAVY_HITTERS:
        info = ases.add(ASInfo(asn=asn, name=name, kind=kind, target_weight=weight))
        block_count = 3 if weight >= 2.0 else 2
        for _ in range(block_count):
            allocate(info, int(rng.integers(14, 17)))

    # Synthetic tail: heavy-tailed weights, mixed kinds.
    kinds = (
        [ASKind.HOSTING] * 25
        + [ASKind.ISP] * 35
        + [ASKind.BUSINESS] * 20
        + [ASKind.CLOUD] * 10
        + [ASKind.EDUCATION] * 10
    )
    tail_total_weight = 100.0 - sum(weight for *_, weight in HEAVY_HITTERS)
    raw_weights = rng.lognormal(mean=0.0, sigma=1.2, size=config.tail_as_count)
    raw_weights *= tail_total_weight / raw_weights.sum()
    for i in range(config.tail_as_count):
        info = ases.add(
            ASInfo(
                asn=config.tail_asn_base + i,
                name=f"AS{config.tail_asn_base + i}",
                kind=kinds[int(rng.integers(len(kinds)))],
                target_weight=float(raw_weights[i]),
            )
        )
        for _ in range(int(rng.integers(1, 4))):
            allocate(info, int(rng.integers(16, 23)))

    # Akamai's scrubbing AS exists but attracts no direct targets itself.
    ases.add(
        ASInfo(asn=PROLEXIC_ASN, name="Akamai Prolexic", kind=ASKind.MITIGATION,
               target_weight=0.0)
    )

    # Vantage-point footprints -------------------------------------------------
    all_asns = sorted(info.asn for info in ases if info.asn != PROLEXIC_ASN)
    member_count = int(len(all_asns) * config.ixp_member_share)
    ixp_members = frozenset(
        int(asn) for asn in rng.choice(all_asns, size=member_count, replace=False)
    )

    eligible_netscout = [
        info.asn
        for info in ases
        if info.kind in (ASKind.ISP, ASKind.BUSINESS, ASKind.HOSTING)
    ]
    netscout_count = min(config.netscout_customer_count, len(eligible_netscout))
    netscout_customers = frozenset(
        int(asn)
        for asn in rng.choice(eligible_netscout, size=netscout_count, replace=False)
    )

    akamai_customers: PrefixTable[bool] = PrefixTable()
    candidate_prefixes = [
        prefix
        for info in ases
        if info.kind in (ASKind.BUSINESS, ASKind.HOSTING, ASKind.CLOUD)
        for prefix in info.prefixes
    ]
    picked = rng.choice(
        len(candidate_prefixes),
        size=min(config.akamai_customer_prefixes, len(candidate_prefixes)),
        replace=False,
    )
    for index in picked:
        akamai_customers.insert(candidate_prefixes[int(index)], True)

    sampler = TargetSampler(ases)
    return InternetPlan(
        config=config,
        ases=ases,
        rir=rir,
        routing=routing,
        ixp_member_asns=ixp_members,
        netscout_customer_asns=netscout_customers,
        akamai_customers=akamai_customers,
        _sampler=sampler,
    )
