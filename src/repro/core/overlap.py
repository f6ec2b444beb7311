"""Set-intersection analysis of targets across observatories.

Implements the paper's Figure-7 UpSet analysis: for every combination of
observatories, the number of targets seen by *exactly* that combination
(exclusive intersections), plus per-observatory totals and shares.

Named sets are sorted, unique int64 key arrays.  :func:`membership`
builds their union once, with a bitmask per key of the sets holding it;
the UpSet rows, the pairwise overlaps and the federation joins
(:mod:`repro.core.federation`) are counts over that one bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np


@dataclass(frozen=True, eq=False)
class Membership:
    """The union of named key sets and, per key, which sets hold it."""

    names: list[str]
    keys: np.ndarray  # the sorted union
    mask: np.ndarray  # bit i is set where names[i] holds the key

    def bits(self, *names: str) -> int:
        """The bitmask of the named sets."""
        return sum(1 << self.names.index(name) for name in names)

    def holding(self, *names: str) -> np.ndarray:
        """Boolean mask over :attr:`keys`: held by every named set."""
        bits = self.bits(*names)
        return (self.mask & bits) == bits

    def size(self, name: str) -> int:
        """Number of keys in one named set."""
        return int(np.count_nonzero(self.holding(name)))


def membership(named_keys: dict[str, np.ndarray]) -> Membership:
    """Union of named sorted, unique key sets, with per-key membership.

    One stable argsort of the concatenated sets merges their sorted runs
    (faster than the default sort on a few long runs); each run of equal
    keys in that order is one union key, and its mask ORs the bits of the
    sets it came from.
    """
    names = list(named_keys)
    sets = list(named_keys.values())
    dtype = np.min_scalar_type((1 << len(names)) - 1)
    concatenated = np.concatenate(sets)
    if not len(concatenated):
        return Membership(names=names, keys=concatenated, mask=np.zeros(0, dtype))
    order = np.argsort(concatenated, kind="stable")
    ordered = concatenated[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    bits = np.repeat(
        (1 << np.arange(len(sets))).astype(dtype),
        [len(values) for values in sets],
    )
    return Membership(
        names=names,
        keys=ordered[starts],
        mask=np.bitwise_or.reduceat(bits[order], starts),
    )


@dataclass(frozen=True)
class UpsetRow:
    """One exclusive intersection: targets seen by exactly these sets."""

    members: tuple[str, ...]
    count: int
    share: float  # of the universe (union of all sets)


@dataclass
class UpsetResult:
    """Full UpSet decomposition of named sets."""

    set_names: list[str]
    set_sizes: dict[str, int]
    set_shares: dict[str, float]
    universe_size: int
    rows: list[UpsetRow]

    def exclusive(self, *members: str) -> UpsetRow:
        """The row for exactly the given member combination."""
        wanted = tuple(sorted(members))
        for row in self.rows:
            if tuple(sorted(row.members)) == wanted:
                return row
        return UpsetRow(members=wanted, count=0, share=0.0)

    def seen_by_all(self) -> UpsetRow:
        """The all-observatories intersection row."""
        return self.exclusive(*self.set_names)


def upset(members: Membership) -> UpsetResult:
    """Exclusive-intersection decomposition of named sets.

    Every element of the universe belongs to exactly one row (the
    combination of sets containing it), so row counts sum to the universe
    size.
    """
    names = members.names
    if len(names) < 2:
        raise ValueError("need at least two sets")
    universe_size = len(members.keys)
    counts = np.bincount(members.mask, minlength=1 << len(names))
    rows = [
        UpsetRow(
            members=tuple(
                sorted(name for i, name in enumerate(names) if signature >> i & 1)
            ),
            count=int(counts[signature]),
            share=int(counts[signature]) / universe_size,
        )
        for signature in np.flatnonzero(counts).tolist()
    ]
    rows.sort(key=lambda row: (-row.count, row.members))
    sizes = {name: members.size(name) for name in names}
    return UpsetResult(
        set_names=list(names),
        set_sizes=sizes,
        set_shares={
            name: (size / universe_size if universe_size else 0.0)
            for name, size in sizes.items()
        },
        universe_size=universe_size,
        rows=rows,
    )


def pairwise_overlap_shares(members: Membership) -> dict[tuple[str, str], float]:
    """Directed overlap shares: fraction of A's elements also in B.

    The paper quotes these as e.g. "AmpPot shared 57% of the targets it
    observed with Hopscotch".
    """
    shares: dict[tuple[str, str], float] = {}
    for a, b in combinations(members.names, 2):
        size_a, size_b = members.size(a), members.size(b)
        intersection = int(np.count_nonzero(members.holding(a, b)))
        shares[(a, b)] = intersection / size_a if size_a else 0.0
        shares[(b, a)] = intersection / size_b if size_b else 0.0
    return shares
