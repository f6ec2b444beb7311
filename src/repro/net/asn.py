"""Autonomous-system registry.

Each AS has a number, a display name, a kind (hosting providers dominate the
paper's Table 4 of most-targeted ASes), and a *target weight* controlling how
attractive its address space is to the synthetic attack generator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from repro.net.addr import Prefix


class ASKind(enum.Enum):
    """Coarse operator category, mirroring the labels in the paper's Table 4."""

    HOSTING = "hosting"
    ISP = "isp"
    BUSINESS = "business"
    CLOUD = "cloud"
    EDUCATION = "education"
    IXP = "ixp"
    MITIGATION = "mitigation"


@dataclass
class ASInfo:
    """One autonomous system and its address holdings."""

    asn: int
    name: str
    kind: ASKind
    target_weight: float = 1.0
    prefixes: list[Prefix] = field(default_factory=list)

    @property
    def address_count(self) -> int:
        """Total addresses across all owned prefixes."""
        return sum(prefix.size for prefix in self.prefixes)

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError(f"invalid ASN: {self.asn}")
        if self.target_weight < 0:
            raise ValueError(f"negative target weight for AS{self.asn}")


class ASRegistry:
    """Registry of all ASes in the synthetic Internet plan."""

    def __init__(self) -> None:
        self._by_asn: dict[int, ASInfo] = {}

    def add(self, info: ASInfo) -> ASInfo:
        """Register an AS; ASN must be unused."""
        if info.asn in self._by_asn:
            raise ValueError(f"duplicate ASN {info.asn}")
        self._by_asn[info.asn] = info
        return info

    def get(self, asn: int) -> ASInfo:
        """The AS with the given number; KeyError if unknown."""
        return self._by_asn[asn]

    def __contains__(self, asn: int) -> bool:
        return asn in self._by_asn

    def __len__(self) -> int:
        return len(self._by_asn)

    def __iter__(self) -> Iterator[ASInfo]:
        return iter(self._by_asn.values())
