"""Network-telescope observatory model (macro level).

A telescope monitoring ``size`` unused addresses receives, from a randomly
spoofed direct-path attack, an expected ``pps x response_ratio x size/2^32``
packets per second of backscatter.  The macro model applies the Corsaro
RSDoS thresholds (paper Appendix J) to Poisson-sampled backscatter counts:

* at least 25 backscatter packets in total,
* attack span at least 60 seconds,
* a 60-second window with at least 30 packets.

The packet-level twin of this rule lives in
:mod:`repro.observatories.rsdos`; tests assert both agree across the
detection boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.events import AttackClass
from repro.net.addr import Prefix
from repro.observatories.base import Observations, Observatory, VisibilityNoise

IPV4_SPACE = float(1 << 32)


@dataclass(frozen=True)
class TelescopeConfig:
    """Detection thresholds (Corsaro defaults from the paper's Appendix J)."""

    min_packets: int = 25
    min_duration_s: float = 60.0
    window_packets: int = 30
    window_s: float = 60.0
    #: share of attack packets eliciting a victim response that reaches
    #: the spoofed address (victims are rate-limited and often mitigated).
    #: 0.004 puts the UCSD/ORION detectable-target ratio near the paper's
    #: observed ~6x for the default attack-rate distribution, with UCSD
    #: seeing roughly half the targets the honeypots see (Figure 7).
    response_ratio: float = 0.004


class NetworkTelescope(Observatory):
    """One telescope (UCSD-NT or ORION) with its monitored prefixes."""

    reported_classes = (AttackClass.DIRECT_PATH,)

    def __init__(
        self,
        key: str,
        name: str,
        prefixes: tuple[Prefix, ...],
        rng: np.random.Generator,
        config: TelescopeConfig | None = None,
        noise: VisibilityNoise | None = None,
        mitigation=None,
    ) -> None:
        if not prefixes:
            raise ValueError("telescope needs at least one monitored prefix")
        self.key = key
        self.name = name
        self.prefixes = prefixes
        self.size = sum(prefix.size for prefix in prefixes)
        self.share = self.size / IPV4_SPACE
        self.config = config or TelescopeConfig()
        self.noise = noise
        #: optional cross-observatory interference model (Section 5): a
        #: quickly-mitigated attack reflects backscatter only until the
        #: mitigation onset.
        self.mitigation = mitigation
        self._rng = rng
        # Per-batch invariants, hoisted out of observe(): the expected
        # backscatter share per attack pps and the threshold scalars.
        self._backscatter_share = self.config.response_ratio * self.share
        self._min_packets = self.config.min_packets
        self._min_duration_s = self.config.min_duration_s
        self._window_packets = self.config.window_packets
        self._window_s = self.config.window_s

    # -- analytic sensitivity ----------------------------------------------------

    def detectable_rate_pps(self) -> float:
        """Smallest attack rate (pps) whose *expected* backscatter satisfies
        the total-packet threshold within a 300 s measurement interval.

        This is the figure of merit the paper quotes in Section 5 (UCSD-NT
        0.026 Mbps, ORION 0.60 Mbps at ~114-byte packets, assuming every
        attack packet elicits a response).
        """
        return self.config.min_packets / (300.0 * self.share)

    def detectable_rate_mbps(self, packet_bytes: float = 114.0) -> float:
        """Section-5 sensitivity converted to Mbps at the given packet size."""
        return self.detectable_rate_pps() * packet_bytes * 8.0 / 1e6

    # -- macro observation --------------------------------------------------------

    def observe(self, batch) -> Observations:
        """Apply the RSDoS thresholds to Poisson-sampled backscatter."""
        days = batch.days
        mask = batch.is_rsdos
        if self.outages:
            mask &= ~self.outage_mask(days)
        if not mask.any():
            return Observations(self.name)
        indices = np.flatnonzero(mask)
        bias = batch.bias[self.key][indices]
        pps = batch.pps[indices]
        if self.mitigation is not None:
            duration = self.mitigation.effective_durations(batch)[indices]
        else:
            duration = batch.duration[indices]

        backscatter_rate = pps * self._backscatter_share * bias
        if self.noise is not None:
            backscatter_rate = backscatter_rate * self.noise.factors_for(
                days[indices] // 7
            )
        expected_total = backscatter_rate * duration
        total = self._rng.poisson(expected_total)

        expected_window = backscatter_rate * self._window_s
        window = np.minimum(total, self._rng.poisson(expected_window))

        detected = (
            (total >= self._min_packets)
            & (duration >= self._min_duration_s)
            & (window >= self._window_packets)
        )
        return Observations.from_batch(self.name, batch, indices[detected])
