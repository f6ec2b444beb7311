"""The configured observatory set of the paper (Table 2).

:func:`build_observatories` assembles the ten vantage points against a
synthetic Internet plan:

========================  ======  ===========  ==========================
Platform                  Type    Attack       Coverage
========================  ======  ===========  ==========================
UCSD NT                   NT      RSDoS (DP)   ~12M IPs (/9 + /10)
ORION NT                  NT      RSDoS (DP)   ~500k IPs (/13)
Netscout Atlas (DP, RA)   flow    DP + RA      customer ASNs, worldwide
Akamai Prolexic (DP, RA)  flow    DP + RA      Prolexic-routed prefixes
IXP BH (DP, RA)           flow    DP + RA      member ASNs, blackholing
Hopscotch                 HP      RA           65 sensor IPs
AmpPot                    HP      RA           ~30 responding of 70 IPs
NewKid                    HP      RA           1 sensor IP
========================  ======  ===========  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.attacks.events import AttackClass
from repro.net.plan import (
    ORION_TELESCOPE_PREFIX,
    UCSD_TELESCOPE_PREFIXES,
    InternetPlan,
)
from repro.obs import counter, span
from repro.observatories.base import Observations, Observatory, SeriesKey, VisibilityNoise
from repro.observatories.flowmon import AkamaiProlexic, IxpBlackholing, NetscoutAtlas
from repro.observatories.honeypot import (
    AMPPOT_SPEC,
    HOPSCOTCH_SPEC,
    NEWKID_SPEC,
    HoneypotPlatform,
)
from repro.observatories.telescope import NetworkTelescope
from repro.util.calendar import StudyCalendar
from repro.util.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (study -> registry)
    from repro.core.study import StudyConfig

#: Platform dark windows the paper notes in Section 6.1 ("Missing data:
#: ORION in 2019Q3-Q4, IXP in Jan 2019"), as date ranges.
import datetime as _dt

PAPER_OUTAGES: dict[str, tuple[tuple[_dt.date, _dt.date], ...]] = {
    "ORION": ((_dt.date(2019, 7, 1), _dt.date(2020, 1, 1)),),
    "IXP": ((_dt.date(2019, 1, 1), _dt.date(2019, 2, 1)),),
}


def _outage_days(
    calendar: StudyCalendar | None, name: str
) -> tuple[tuple[int, int], ...]:
    """Paper outage windows converted to day-index ranges (clamped)."""
    if calendar is None:
        return ()
    windows = []
    for start, end in PAPER_OUTAGES.get(name, ()):
        if end <= calendar.start or start > calendar.end:
            continue
        first = max(start, calendar.start)
        last = min(end, calendar.end + _dt.timedelta(days=1))
        windows.append(
            (calendar.day_index(first), (last - calendar.start).days)
        )
    return tuple(windows)

#: Display order of the ten main time series (paper Figure 4, top to bottom
#: within each attack-class group), plus NewKid (appendix-only).
MAIN_SERIES_ORDER = (
    SeriesKey("ORION", AttackClass.DIRECT_PATH),
    SeriesKey("UCSD", AttackClass.DIRECT_PATH),
    SeriesKey("Netscout", AttackClass.DIRECT_PATH),
    SeriesKey("Akamai", AttackClass.DIRECT_PATH),
    SeriesKey("IXP", AttackClass.DIRECT_PATH),
    SeriesKey("Hopscotch", AttackClass.REFLECTION_AMPLIFICATION),
    SeriesKey("AmpPot", AttackClass.REFLECTION_AMPLIFICATION),
    SeriesKey("Netscout", AttackClass.REFLECTION_AMPLIFICATION),
    SeriesKey("Akamai", AttackClass.REFLECTION_AMPLIFICATION),
    SeriesKey("IXP", AttackClass.REFLECTION_AMPLIFICATION),
)

#: The four academic observatories of the target analysis (Section 7).
ACADEMIC_OBSERVATORIES = ("ORION", "UCSD", "Hopscotch", "AmpPot")


@dataclass
class ObservatorySet:
    """All observatory instances, with convenience accessors."""

    telescopes: list[NetworkTelescope]
    honeypots: list[HoneypotPlatform]
    flow_monitors: list[Observatory]

    def all(self) -> list[Observatory]:
        """Every observatory, telescopes first."""
        return [*self.telescopes, *self.honeypots, *self.flow_monitors]

    def by_name(self, name: str) -> Observatory:
        """Look up an observatory by display name."""
        for observatory in self.all():
            if observatory.name == name:
                return observatory
        raise KeyError(name)

    def run_shard(
        self, shard, calendar: StudyCalendar
    ) -> tuple[dict[str, Observations], dict[AttackClass, np.ndarray]]:
        """Fused sweep: every observatory crosses one columnar shard once.

        The shard-parallel executor's unit of work: each platform
        evaluates its visibility masks over the whole multi-day shard in
        one vectorised pass, and the per-class weekly ground-truth counts
        fall out of two bincounts.
        """
        weeks = shard.days // 7
        n_weeks = calendar.n_weeks
        ground_truth = {
            AttackClass.DIRECT_PATH: np.bincount(
                weeks[shard.is_direct_path], minlength=n_weeks
            ).astype(np.float64),
            AttackClass.REFLECTION_AMPLIFICATION: np.bincount(
                weeks[shard.is_reflection], minlength=n_weeks
            ).astype(np.float64),
        }
        sinks: dict[str, Observations] = {}
        for observatory in self.all():
            sink = sinks[observatory.name] = Observations(observatory.name)
            with span(f"observe[platform={observatory.name}]"):
                observatory.observe(shard, sink)
            counter("observe.records", platform=observatory.name).inc(len(sink))
        return sinks, ground_truth


#: Each platform's independent weekly coverage fluctuation (lognormal
#: sigma); telescopes, honeypots and the cloud provider scale it down.
VISIBILITY_NOISE_SIGMA = 0.55


def build_observatories(config: "StudyConfig", plan: InternetPlan) -> ObservatorySet:
    """Instantiate the paper's observatory set for a study config.

    Every platform draws from its own named stream of the config's seed.
    With ``config.paper_outages``, ORION and the IXP get the dark windows
    the paper notes (2019Q3-Q4 and January 2019 respectively).  A
    ``config.scenario`` (:class:`~repro.scenarios.config.ScenarioConfig`)
    with an active cloud family appends the auto-mitigating cloud provider
    as an eleventh vantage point; it draws from its own named RNG streams,
    so the ten baseline platforms are unaffected.  A ``config.tuning``
    (:class:`~repro.observatories.tuning.ObservatoryTuning`) scales the
    flow-monitor thresholds off their paper defaults — the counterfactual
    engine's "blackholing aggressiveness" and "severity floor" knobs; a
    neutral (or absent) tuning builds the exact baseline constructors.
    """
    rng_factory = RngFactory(config.seed)
    tuning = config.tuning

    # Tuning scales the paper-default constructor values; None and the
    # neutral tuning produce identical observatories (same kwargs).
    netscout_kwargs: dict = {}
    ixp_kwargs: dict = {}
    if tuning is not None:
        netscout_kwargs = {
            "severity_floor_bps": 20e6 * tuning.netscout_severity_floor_scale,
        }
        ixp_kwargs = {
            "ra_threshold_bps": 1e9 * tuning.ixp_ra_threshold_scale,
            "dp_threshold_bps": 100e6 * tuning.ixp_dp_threshold_scale,
            "blackhole_probability": min(
                1.0, 0.55 * tuning.ixp_blackhole_probability_scale
            ),
        }

    def noise(
        key: str, mean: float = 0.8, sigma: float = VISIBILITY_NOISE_SIGMA
    ) -> VisibilityNoise:
        return VisibilityNoise(
            rng_factory.stream(f"noise/{key}"), mean=mean, sigma=sigma
        )

    # Telescopes are passive taps on fixed address space: steadier
    # coverage than customer-driven industry feeds.
    telescopes = [
        NetworkTelescope(
            key="ucsd",
            name="UCSD",
            prefixes=UCSD_TELESCOPE_PREFIXES,
            rng=rng_factory.stream("observatory/ucsd"),
            config=config.telescope,
            noise=noise("ucsd", mean=0.88, sigma=VISIBILITY_NOISE_SIGMA * 0.8),
        ),
        NetworkTelescope(
            key="orion",
            name="ORION",
            prefixes=(ORION_TELESCOPE_PREFIX,),
            rng=rng_factory.stream("observatory/orion"),
            config=config.telescope,
            noise=noise("orion", mean=0.88, sigma=VISIBILITY_NOISE_SIGMA * 0.8),
        ),
    ]
    honeypots = [
        HoneypotPlatform(
            spec,
            rng=rng_factory.stream(f"observatory/{spec.key}"),
            rir=plan.rir,
            aggregate_carpet=config.aggregate_carpet,
            # Honeypot farms are static sensors: steadier coverage than
            # customer-driven industry feeds.
            noise=noise(spec.key, mean=0.92, sigma=VISIBILITY_NOISE_SIGMA * 0.7),
        )
        for spec in (HOPSCOTCH_SPEC, AMPPOT_SPEC, NEWKID_SPEC)
    ]
    flow_monitors: list[Observatory] = [
        NetscoutAtlas(
            plan,
            rng_factory.stream("observatory/netscout"),
            noise=noise("netscout"),
            **netscout_kwargs,
        ),
        AkamaiProlexic(
            plan, rng_factory.stream("observatory/akamai"), noise=noise("akamai")
        ),
        IxpBlackholing(
            plan,
            rng_factory.stream("observatory/ixp"),
            noise=noise("ixp"),
            **ixp_kwargs,
        ),
    ]
    scenario = config.scenario
    if scenario is not None and scenario.cloud is not None:
        from repro.observatories.cloud import CloudObservatory

        flow_monitors.append(
            CloudObservatory(
                plan,
                rng_factory.stream("observatory/cloud"),
                policy=scenario.cloud,
                # A commercial mitigation pipeline: steadier coverage than
                # the alert-driven industry feeds, akin to honeypot farms.
                noise=noise("cloud", mean=0.92, sigma=VISIBILITY_NOISE_SIGMA * 0.7),
            )
        )
    observatory_set = ObservatorySet(
        telescopes=telescopes, honeypots=honeypots, flow_monitors=flow_monitors
    )
    if config.paper_outages:
        for observatory in observatory_set.all():
            observatory.outages = _outage_days(config.calendar, observatory.name)
    return observatory_set
