"""Longest-prefix-match table over IPv4 prefixes.

Implemented as one dict per prefix length, probed from longest to shortest.
A lookup costs at most 33 dict probes, which beats a pointer-chasing radix
trie in CPython for the table sizes we use (tens of thousands of routes),
and the implementation is trivially correct.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

import numpy as np

from repro.net.addr import IPV4_BITS, Prefix

V = TypeVar("V")


class PrefixTable(Generic[V]):
    """A map from :class:`Prefix` to a value, with longest-prefix match."""

    def __init__(self) -> None:
        self._by_length: dict[int, dict[int, V]] = {}
        self._lengths_desc: list[int] = []
        self._size = 0
        self._sorted_networks: dict[int, np.ndarray] = {}

    # -- mutation ------------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the entry for ``prefix``."""
        bucket = self._by_length.get(prefix.length)
        if bucket is None:
            bucket = self._by_length[prefix.length] = {}
            self._lengths_desc = sorted(self._by_length, reverse=True)
        if prefix.network not in bucket:
            self._size += 1
            self._sorted_networks.pop(prefix.length, None)
        bucket[prefix.network] = value

    # -- exact access ----------------------------------------------------------

    def get(self, prefix: Prefix, default: V | None = None) -> V | None:
        """Exact-match lookup of a prefix entry."""
        bucket = self._by_length.get(prefix.length)
        if bucket is None:
            return default
        return bucket.get(prefix.network, default)

    def __contains__(self, prefix: Prefix) -> bool:
        bucket = self._by_length.get(prefix.length)
        return bucket is not None and prefix.network in bucket

    # -- longest-prefix match ---------------------------------------------------

    def lookup(self, address: int) -> tuple[Prefix, V] | None:
        """The most specific entry covering ``address``, or ``None``."""
        for length in self._lengths_desc:
            network = address & _MASKS[length]
            bucket = self._by_length[length]
            if network in bucket:
                return Prefix(network, length), bucket[network]
        return None

    def covers_many(self, addresses: np.ndarray) -> np.ndarray:
        """Boolean mask: whether *any* stored prefix covers each address.

        One sorted ``searchsorted`` probe per distinct prefix length —
        the vectorised membership test the observatory coverage models
        run per batch (they only need membership, not the matched value).
        """
        out = np.zeros(len(addresses), dtype=bool)
        if not len(addresses):
            return out
        for length in self._lengths_desc:
            networks = self._sorted_networks.get(length)
            if networks is None:
                networks = np.sort(
                    np.fromiter(
                        self._by_length[length], dtype=np.int64,
                        count=len(self._by_length[length]),
                    )
                )
                self._sorted_networks[length] = networks
            masked = addresses & np.int64(_MASKS[length])
            positions = np.searchsorted(networks, masked)
            positions[positions == len(networks)] = len(networks) - 1
            out |= networks[positions] == masked
        return out

    def longest_covering_all(
        self, addresses: list[int], min_length: int = 0, max_length: int = IPV4_BITS
    ) -> tuple[Prefix, V] | None:
        """The longest entry within ``[min_length, max_length]`` covering
        *every* address in ``addresses``.

        Used by the carpet-bombing aggregation (Appendix I): find the longest
        BGP-routed prefix that covers the whole attacked address set.
        """
        if not addresses:
            raise ValueError("empty address list")
        low, high = min(addresses), max(addresses)
        differing = low ^ high
        widest_possible = IPV4_BITS - differing.bit_length()
        ceiling = min(widest_possible, max_length)
        for length in self._lengths_desc:
            if length > ceiling or length < min_length:
                continue
            network = low & _MASKS[length]
            bucket = self._by_length[length]
            if network in bucket:
                return Prefix(network, length), bucket[network]
        return None

    # -- iteration -----------------------------------------------------------

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """All entries, longest prefixes first, networks ascending."""
        for length in self._lengths_desc:
            for network in sorted(self._by_length[length]):
                yield Prefix(network, length), self._by_length[length][network]

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrefixTable({self._size} entries)"


_MASKS = [0] + [
    ((1 << IPV4_BITS) - 1) ^ ((1 << (IPV4_BITS - length)) - 1)
    for length in range(1, IPV4_BITS + 1)
]
