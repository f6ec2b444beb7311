"""BGP routing table: announced prefixes with origin ASes.

Only origin attribution and longest-prefix match matter to the paper's
analyses (AS attribution of targets, carpet-bombing aggregation over
BGP-routed prefixes), so the table maps prefixes straight to origin ASNs.
"""

from __future__ import annotations

from typing import Iterator

from repro.net.addr import IPV4_BITS, Prefix
from repro.net.trie import PrefixTable


class RoutingTable:
    """Announced prefixes and their origin ASNs, with LPM lookups."""

    def __init__(self) -> None:
        self._table: PrefixTable[int] = PrefixTable()

    def announce(self, prefix: Prefix, origin_asn: int) -> None:
        """Announce ``prefix`` from ``origin_asn`` (replaces prior origin)."""
        if origin_asn <= 0:
            raise ValueError(f"invalid origin ASN: {origin_asn}")
        self._table.insert(prefix, origin_asn)

    # -- lookups -------------------------------------------------------------

    def origin_as(self, address: int) -> int | None:
        """Origin ASN of the most specific route covering ``address``."""
        hit = self._table.lookup(address)
        return hit[1] if hit is not None else None

    def routed_prefix(self, address: int) -> Prefix | None:
        """The most specific announced prefix covering ``address``."""
        hit = self._table.lookup(address)
        return hit[0] if hit is not None else None

    def longest_routed_covering(
        self,
        addresses: list[int],
        min_length: int = 0,
        max_length: int = IPV4_BITS,
    ) -> Prefix | None:
        """Longest announced prefix (within the length bounds) covering every
        address — the Appendix-I carpet-bombing aggregation primitive."""
        hit = self._table.longest_covering_all(
            addresses, min_length=min_length, max_length=max_length
        )
        return hit[0] if hit is not None else None

    def routes(self) -> Iterator[tuple[Prefix, int]]:
        """All (prefix, origin ASN) announcements."""
        return self._table.items()

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutingTable({len(self)} routes)"
