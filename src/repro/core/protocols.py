"""Per-protocol target composition across honeypots (paper Section 7.3).

"Differences in protocol support across honeypots will affect the
composition of attacks they see.  AmpPot observed more targets attacked
via CHARGEN while Hopscotch saw more targets attacked via CLDAP ...  For
protocols such as QOTD, RPC, and NTP both had largely overlapping target
sets."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.vectors import VECTORS
from repro.observatories.base import Observations, pack_keys, unique_keys


@dataclass(frozen=True)
class VectorOverlap:
    """Target-set comparison between two platforms for one vector."""

    vector: str
    targets_a: int
    targets_b: int
    shared: int

    @property
    def jaccard(self) -> float:
        """Jaccard similarity of the two target sets."""
        union = self.targets_a + self.targets_b - self.shared
        return self.shared / union if union else 0.0

    @property
    def skew(self) -> float:
        """Imbalance: >1 means platform A sees more targets, <1 fewer."""
        if self.targets_b == 0:
            return float("inf") if self.targets_a else 1.0
        return self.targets_a / self.targets_b


def per_vector_target_overlap(
    a: Observations, b: Observations
) -> dict[str, VectorOverlap]:
    """Per-vector (date, IP) target overlap between two observatories,
    counted on sorted packed target keys (``day << 32 | ip``)."""

    def keys_of(observations: Observations, vector_id: int) -> np.ndarray:
        mask = observations.vector_id == vector_id
        return unique_keys(pack_keys(observations.day[mask], observations.target[mask]))

    result: dict[str, VectorOverlap] = {}
    for vector_id in np.union1d(a.vector_id, b.vector_id).tolist():
        keys_a = keys_of(a, vector_id)
        keys_b = keys_of(b, vector_id)
        name = VECTORS[vector_id].name
        result[name] = VectorOverlap(
            vector=name,
            targets_a=len(keys_a),
            targets_b=len(keys_b),
            shared=len(np.intersect1d(keys_a, keys_b, assume_unique=True)),
        )
    return result


def render_vector_overlap(
    label_a: str, label_b: str, overlaps: dict[str, VectorOverlap]
) -> str:
    """Text table of the Section-7.3 comparison."""
    lines = [
        f"Per-protocol targets: {label_a} vs {label_b} (Section 7.3)",
        "",
        f"{'vector':12s} {label_a:>10s} {label_b:>10s} {'shared':>8s} "
        f"{'jaccard':>8s} {'skew':>6s}",
    ]
    for name, overlap in sorted(
        overlaps.items(), key=lambda kv: -(kv[1].targets_a + kv[1].targets_b)
    ):
        skew = "inf" if overlap.skew == float("inf") else f"{overlap.skew:.2f}"
        lines.append(
            f"{name:12s} {overlap.targets_a:>10d} {overlap.targets_b:>10d} "
            f"{overlap.shared:>8d} {overlap.jaccard:>8.2f} {skew:>6s}"
        )
    return "\n".join(lines)
