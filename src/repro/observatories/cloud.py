"""Cloud-provider observatory with auto-mitigation visibility bias.

The "One Year of DDoS Attacks Against a Cloud Provider" study measured
attacks *from inside* a mitigation pipeline, and its headline caveats are
structural: attacks shorter than the detection window never surface as
alerts, and attacks big enough to trip auto-mitigation are observed only
until mitigation engages — so the biggest attacks look *short* from the
cloud's vantage point.  :class:`CloudObservatory` models that pipeline as
an eleventh vantage point covering victims in hosting ASes (the cloud's
customer base).

The bias itself is the pure function :func:`apply_auto_mitigation`, kept
free of RNG and platform state so its monotonicity properties — mitigation
never increases the observed count or duration, visibility is monotone in
the mitigation threshold — can be property-tested directly.

The platform is only instantiated when a
:class:`~repro.scenarios.config.CloudObservatoryScenario` is active, and
it draws from its own named RNG streams (``observatory/cloud``,
``noise/cloud``), so the baseline ten-observatory study is bit-identical
with or without this module loaded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.attacks.events import AttackClass
from repro.net.asn import ASKind
from repro.net.plan import InternetPlan
from repro.observatories.base import Observations, Observatory, VisibilityNoise
from repro.observatories.flowmon import _SortedMembership

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenarios.config import CloudObservatoryScenario


def apply_auto_mitigation(
    duration: np.ndarray,
    bps: np.ndarray,
    mitigation_draw: np.ndarray,
    policy: "CloudObservatoryScenario",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cloud pipeline's visibility transform, as a pure function.

    ``mitigation_draw`` is one uniform [0, 1) variate per attack (drawn by
    the caller, so the transform itself is deterministic).  Returns
    ``(mitigated, observed_duration, visible)``:

    * ``mitigated`` — above the threshold *and* the per-attack draw fell
      under the mitigation probability;
    * ``observed_duration`` — the true duration, truncated at
      ``time_to_mitigate_s`` for mitigated attacks (mitigation ends the
      platform's view of the attack, not the attack);
    * ``visible`` — observed activity reached the detection window.

    By construction ``observed <= duration`` elementwise and
    ``visible.sum()`` can only shrink as the mitigation probability rises
    or the threshold falls — the properties the hypothesis suite pins.
    """
    duration = np.asarray(duration, dtype=np.float64)
    bps = np.asarray(bps, dtype=np.float64)
    mitigation_draw = np.asarray(mitigation_draw, dtype=np.float64)
    mitigated = (bps >= policy.auto_mitigation_threshold_bps) & (
        mitigation_draw < policy.mitigation_probability
    )
    observed = np.where(
        mitigated, np.minimum(duration, policy.time_to_mitigate_s), duration
    )
    visible = observed >= policy.detection_window_s
    return mitigated, observed, visible


class CloudObservatory(Observatory):
    """A cloud provider's alert feed: hosting-AS victims, auto-mitigated."""

    reported_classes = (
        AttackClass.DIRECT_PATH,
        AttackClass.REFLECTION_AMPLIFICATION,
    )

    def __init__(
        self,
        plan: InternetPlan,
        rng: np.random.Generator,
        *,
        policy: "CloudObservatoryScenario",
        noise: VisibilityNoise | None = None,
    ) -> None:
        self.key = "cloud"
        self.name = "Cloud"
        self.plan = plan
        self.policy = policy
        self.noise = noise
        self._rng = rng
        self._covered = _SortedMembership(
            info.asn for info in plan.ases if info.kind is ASKind.HOSTING
        )

    def observe(self, batch) -> Observations:
        days = batch.days
        covered = self._covered(batch.origin_asn)
        probability = np.full(len(batch), self.policy.detection_probability)
        if self.noise is not None:
            probability = probability * self.noise.factors_for(days // 7)
        probability = np.minimum(1.0, probability)
        # Two variates per attack, drawn as one block: detection first,
        # then the mitigation decision the pure transform consumes.
        draws = self._rng.random((2, len(batch)))
        detected = draws[0] < probability
        _, observed, visible = apply_auto_mitigation(
            batch.duration, batch.bps, draws[1], self.policy
        )
        mask = covered & detected & visible
        if self.outages:
            mask &= ~self.outage_mask(days)
        # The platform reports what it *saw*, not what happened:
        # mitigated attacks carry the truncated duration.
        return Observations.from_batch(
            self.name, batch, np.flatnonzero(mask), duration=observed
        )
