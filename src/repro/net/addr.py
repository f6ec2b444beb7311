"""IPv4 addresses and prefixes as plain integers.

Addresses are ``int`` in ``[0, 2**32)`` throughout the package: the
simulation touches millions of addresses and integer keys keep sets and
dict lookups cheap.  :class:`Prefix` is the only structured type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

IPV4_BITS = 32
IPV4_MAX = (1 << IPV4_BITS) - 1


def parse_ip(text: str) -> int:
    """Parse dotted-quad notation into an integer address.

    >>> parse_ip("10.0.0.1")
    167772161
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"invalid IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255 or (len(part) > 1 and part[0] == "0"):
            raise ValueError(f"invalid IPv4 address: {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(address: int) -> str:
    """Format an integer address as dotted-quad notation.

    >>> format_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= address <= IPV4_MAX:
        raise ValueError(f"address out of range: {address}")
    return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def _mask(length: int) -> int:
    """Network mask for a prefix length."""
    if not 0 <= length <= IPV4_BITS:
        raise ValueError(f"invalid prefix length: {length}")
    if length == 0:
        return 0
    return (IPV4_MAX << (IPV4_BITS - length)) & IPV4_MAX


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 network prefix, e.g. ``10.0.0.0/8``.

    ``network`` must be aligned to ``length`` (host bits zero).
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= IPV4_BITS:
            raise ValueError(f"invalid prefix length: {self.length}")
        if not 0 <= self.network <= IPV4_MAX:
            raise ValueError(f"network out of range: {self.network}")
        if self.network & ~_mask(self.length):
            raise ValueError(
                f"network {format_ip(self.network)} not aligned to /{self.length}"
            )

    # -- basic properties ---------------------------------------------------

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return 1 << (IPV4_BITS - self.length)

    @property
    def first(self) -> int:
        """Lowest covered address."""
        return self.network

    @property
    def last(self) -> int:
        """Highest covered address."""
        return self.network | (self.size - 1)

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside this prefix."""
        return self.first <= address <= self.last

    def covers(self, other: "Prefix") -> bool:
        """Whether this prefix fully contains ``other``."""
        return self.length <= other.length and self.contains(other.network)

    def overlaps(self, other: "Prefix") -> bool:
        """Whether the two prefixes share any address."""
        return self.first <= other.last and other.first <= self.last

    # -- derivation ---------------------------------------------------------

    def subnets(self, length: int) -> Iterator["Prefix"]:
        """All subnets of this prefix at ``length``."""
        if length < self.length or length > IPV4_BITS:
            raise ValueError(f"cannot split /{self.length} into /{length}")
        step = 1 << (IPV4_BITS - length)
        for network in range(self.first, self.last + 1, step):
            yield Prefix(network, length)

    # -- text ---------------------------------------------------------------

    def __str__(self) -> str:
        return f"{format_ip(self.network)}/{self.length}"


def parse_prefix(text: str) -> Prefix:
    """Parse ``a.b.c.d/len`` notation.

    >>> str(parse_prefix("192.0.2.0/24"))
    '192.0.2.0/24'
    """
    network_text, _, length_text = text.partition("/")
    if not length_text:
        raise ValueError(f"missing prefix length: {text!r}")
    return Prefix(parse_ip(network_text), int(length_text))


def prefix_of(address: int, length: int) -> Prefix:
    """The /``length`` prefix containing ``address``."""
    return Prefix(address & _mask(length), length)


def common_prefix(addresses: Iterator[int] | list[int] | set[int]) -> Prefix:
    """The longest prefix covering every address in a non-empty collection.

    >>> str(common_prefix([parse_ip("10.0.0.1"), parse_ip("10.0.0.200")]))
    '10.0.0.0/24'
    """
    pool = list(addresses)
    if not pool:
        raise ValueError("common_prefix of empty collection")
    low, high = min(pool), max(pool)
    differing = low ^ high
    length = IPV4_BITS - differing.bit_length()
    return prefix_of(low, length)
