"""Observatory tuning deltas for counterfactual interventions.

The counterfactual engine (:mod:`repro.counterfactual`) needs to ask
"what if the IXP blackholed more aggressively?" or "what if Netscout's
severity floor sat higher?" — knobs that live in observatory
constructors, not on :class:`~repro.core.study.StudyConfig`.  An
:class:`ObservatoryTuning` expresses those deltas as *multipliers on the
paper defaults*, so a neutral tuning (all scales 1.0) builds byte-
identical observatories and the baseline study never notices the field
exists: ``StudyConfig.tuning`` is fingerprint-omitted while ``None``
(the ``omit-if-none`` rule in :mod:`repro.core.cache`), exactly like
``scenario``.

Scales multiply the constructor defaults in
:func:`repro.observatories.registry.build_observatories`:

* ``netscout_severity_floor_scale`` — Netscout Atlas alerts only on
  attacks above ``20 Mbps x scale`` (paper Section 5: hand-crafted
  severity thresholds).
* ``ixp_ra_threshold_scale`` / ``ixp_dp_threshold_scale`` — the IXP
  blackholing triggers at ``1 Gbps x scale`` (RA) and
  ``100 Mbps x scale`` (DP) (paper Table 2).
* ``ixp_blackhole_probability_scale`` — member propensity to announce a
  blackhole, ``0.55 x scale`` clamped to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class ObservatoryTuning:
    """Multiplicative deltas on the flow-monitor constructor defaults."""

    netscout_severity_floor_scale: float = 1.0
    ixp_ra_threshold_scale: float = 1.0
    ixp_dp_threshold_scale: float = 1.0
    ixp_blackhole_probability_scale: float = 1.0

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not value > 0:
                raise ValueError(f"{spec.name} must be positive, got {value!r}")
