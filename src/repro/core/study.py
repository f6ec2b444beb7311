"""End-to-end study runner: regenerates every table and figure.

:class:`Study` wires the whole reproduction together — synthetic Internet
plan, landscape scenario, ground-truth generator, the ten observatories —
runs the simulation once (cached), and serves every paper artefact
through the declarative registry in :mod:`repro.core.artifacts`:
``artifact_result(name)`` returns the rich in-memory result,
``artifact(name)`` the versioned JSON document.

Typical use::

    from repro import Study, StudyConfig

    study = Study(StudyConfig(seed=0))
    fig3 = study.artifact_result("fig3_trends")
    for label, series in fig3.series.items():
        print(label, series.trend_line().slope_per_year)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.observatories.tuning import ObservatoryTuning
    from repro.scenarios.config import ScenarioConfig

from repro.attacks.campaigns import CampaignConfig, CampaignModel
from repro.attacks.events import AttackClass
from repro.attacks.generator import GeneratorConfig
from repro.attacks.landscape import LandscapeModel
from repro.attacks.spoofing import SavModel
from repro.core.cache import StudyCache, cache_enabled, config_fingerprint
from repro.core.correlation import (
    BoxStats,
    CorrelationMatrix,
    box_stats,
    correlation_matrix,
    quarterly_correlations,
)
from repro.core.federation import FederationResult, federate, subsample_baseline
from repro.core.overlap import (
    Membership,
    UpsetResult,
    membership,
    pairwise_overlap_shares,
    upset,
)
from repro.core.shares import ShareSeries, share_series
from repro.core.targets import weekly_target_counts
from repro.core.timeseries import WeeklySeries
from repro.core.trends import TrendClassification, classify_trend
from repro.core.visibility import AsRow, HighlyVisible, highly_visible, top_target_ases
from repro.industry.survey import TrendCounts, trend_counts
from repro.net.plan import InternetPlan, PlanConfig
from repro.obs import span
from repro.observatories.base import Observations, SeriesKey
from repro.observatories.registry import (
    ACADEMIC_OBSERVATORIES,
    MAIN_SERIES_ORDER,
    ObservatorySet,
    build_observatories,
)
from repro.observatories.telescope import TelescopeConfig
from repro.util.calendar import STUDY_CALENDAR, TAKEDOWN_DATES, StudyCalendar
from repro.util.parallel import SimulationModels, models_for, simulate
from repro.util.rng import RngFactory


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce the study deterministically."""

    seed: int = 0
    calendar: StudyCalendar = STUDY_CALENDAR
    plan: PlanConfig | None = None
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    campaigns: CampaignConfig = field(default_factory=CampaignConfig)
    telescope: TelescopeConfig = field(default_factory=TelescopeConfig)
    sav: SavModel = field(default_factory=SavModel)
    dp_per_day: float = 90.0
    ra_per_day: float = 70.0
    aggregate_carpet: bool = True
    include_takedowns: bool = True
    #: apply the paper's platform dark windows (ORION 2019Q3-Q4, IXP Jan 2019).
    paper_outages: bool = True
    #: Netscout shared ~28% of alerts for the forward join, ~23% reverse.
    netscout_baseline_fraction: float = 0.28
    netscout_reverse_fraction: float = 0.23
    akamai_baseline_fraction: float = 1.0
    #: optional sibling-paper scenario deltas (:mod:`repro.scenarios`);
    #: fingerprint-omitted while ``None`` so the baseline study keeps its
    #: pinned goldens and cache keys.
    scenario: "ScenarioConfig | None" = field(
        default=None, metadata={"fingerprint": "omit-if-none"}
    )
    #: optional observatory tuning deltas for counterfactual runs
    #: (:mod:`repro.counterfactual`); fingerprint-omitted while ``None``
    #: for the same reason as ``scenario``.
    tuning: "ObservatoryTuning | None" = field(
        default=None, metadata={"fingerprint": "omit-if-none"}
    )


# -- result containers ---------------------------------------------------------


@dataclass
class TrendFigure:
    """Figures 2 and 3: per-observatory normalised series with trend lines."""

    attack_class: AttackClass
    series: dict[str, WeeklySeries]
    takedown_weeks: list[int]

    def trend_slopes(self) -> dict[str, dict[int, float]]:
        """Per-observatory regression slopes (per year) for 2019-2022 starts."""
        return {
            label: {
                year: line.slope_per_year
                for year, line in weekly.trend_lines_by_year().items()
            }
            for label, weekly in self.series.items()
        }


@dataclass
class HeatmapFigure:
    """Figure 4: all normalised series stacked into one matrix."""

    labels: list[str]
    matrix: np.ndarray  # (n_series, n_weeks), normalised counts


@dataclass
class CorrelationFigure:
    """Figure 6: Spearman matrices over normalised and EWMA series."""

    normalized: CorrelationMatrix
    smoothed: CorrelationMatrix
    pearson_normalized: CorrelationMatrix


@dataclass
class TargetOverlapFigure:
    """Figure 10: weekly targets of two observatory groups plus overlap."""

    label_a: str
    label_b: str
    weekly_a: np.ndarray
    weekly_b: np.ndarray
    weekly_shared: np.ndarray
    union_share_of_universe: float
    exclusive_share_of_universe: float


@dataclass
class QuarterlyCorrelationFigure:
    """Figure 14: distribution of quarterly pairwise correlations."""

    pairs: dict[tuple[str, str], BoxStats]


@dataclass(frozen=True)
class Table1Row:
    """One Table-1 cell group: trends per observatory for one attack type."""

    attack_type: str
    observatory_trends: dict[str, TrendClassification]
    industry: TrendCounts


@dataclass(frozen=True)
class Table2Row:
    """One observatory-inventory row (paper Table 2)."""

    platform: str
    type: str
    attack: str
    coverage: str
    flow_identifier: str
    timeout: str
    threshold: str


# -- the study -----------------------------------------------------------------


class Study:
    """Runs the full reproduction once and serves every artefact from it.

    ``jobs`` shards the simulation across worker processes (``0`` = one per
    CPU); output is bit-for-bit identical for any worker count.  ``cache``
    controls the on-disk result cache (:mod:`repro.core.cache`): ``None``
    defers to the ``REPRO_NO_CACHE`` environment kill-switch, and
    ``cache_dir`` overrides the cache location (default
    ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).
    """

    def __init__(
        self,
        config: StudyConfig | None = None,
        *,
        jobs: int | None = 1,
        cache: bool | None = None,
        cache_dir: str | None = None,
    ) -> None:
        self.config = config or StudyConfig()
        self.calendar = self.config.calendar
        self.jobs = jobs
        self._cache_enabled = cache_enabled() if cache is None else bool(cache)
        self._cache = StudyCache(cache_dir)
        self._rng_factory = RngFactory(self.config.seed)

    # -- pipeline ---------------------------------------------------------------

    @cached_property
    def models(self) -> SimulationModels:
        """The plan, landscape and campaigns the simulation runs on."""
        return models_for(self.config)

    @property
    def plan(self) -> InternetPlan:
        """The synthetic Internet plan."""
        return self.models.plan

    @property
    def landscape(self) -> LandscapeModel:
        """The scenario model."""
        return self.models.landscape

    @property
    def campaigns(self) -> CampaignModel:
        """The campaign model."""
        return self.models.campaigns

    @cached_property
    def observatories(self) -> ObservatorySet:
        """The configured observatories (ten, plus any scenario additions)."""
        return build_observatories(self.config, self.plan)

    @cached_property
    def observations(self) -> dict[str, Observations]:
        """Simulation output: attack records per observatory (runs once).

        Consults the on-disk study cache first; a miss simulates (sharded
        across ``jobs`` worker processes) and stores the merged result.
        Ground-truth weekly class counts ride along either way and are
        served by :meth:`ground_truth_weekly`.
        """
        fingerprint = config_fingerprint(self.config)
        if self._cache_enabled:
            cached = self._cache.load(fingerprint)
            if cached is not None:
                sinks, ground_truth = cached
                self._ground_truth_weekly = ground_truth
                return sinks
        sinks, ground_truth = simulate(self.config, jobs=self.jobs)
        self._ground_truth_weekly = ground_truth
        if self._cache_enabled:
            self._cache.store(fingerprint, sinks, ground_truth)
        return sinks

    def ground_truth_weekly(self, attack_class: AttackClass) -> np.ndarray:
        """Weekly ground-truth attack counts of one class (runs the
        simulation if needed)."""
        self.observations
        return self._ground_truth_weekly[attack_class]

    # -- series -----------------------------------------------------------------

    def series(self, key: SeriesKey) -> WeeklySeries:
        """The weekly series for one observatory/attack-class pair."""
        observations = self.observations[key.observatory]
        counts = observations.weekly_counts(self.calendar, key.attack_class)
        return WeeklySeries(
            label=key.label, counts=counts, calendar=self.calendar
        )

    def main_series(self) -> dict[str, WeeklySeries]:
        """The ten main series in the paper's display order."""
        with span("analysis.timeseries"):
            ordered: dict[str, WeeklySeries] = {}
            for key in MAIN_SERIES_ORDER:
                weekly = self.series(key)
                # Telescopes are single-class platforms; label them plainly.
                label = (
                    key.observatory
                    if key.observatory in ("UCSD", "ORION")
                    else key.label
                )
                ordered[label] = WeeklySeries(
                    label=label, counts=weekly.counts, calendar=self.calendar
                )
            return ordered

    def _class_series(self, attack_class: AttackClass) -> dict[str, WeeklySeries]:
        out: dict[str, WeeklySeries] = {}
        for label, weekly in self.main_series().items():
            key_class = _label_class(label)
            if key_class is attack_class:
                out[label] = weekly
        return out

    def _takedown_weeks(self) -> list[int]:
        weeks: list[int] = []
        for date in TAKEDOWN_DATES:
            if self.calendar.start <= date <= self.calendar.end:
                weeks.append(self.calendar.week_of_date(date))
        return weeks

    # -- academic target sets ------------------------------------------------------

    @cached_property
    def academic_target_sets(self) -> dict[str, np.ndarray]:
        """Packed target keys of the four academic observatories (Section 7)."""
        with span("analysis.targets"):
            return {
                name: self.observations[name].target_keys()
                for name in ACADEMIC_OBSERVATORIES
            }

    @cached_property
    def academic_membership(self) -> Membership:
        """The academic target union with each key's observatory bitmask."""
        target_sets = self.academic_target_sets
        with span("analysis.targets.membership"):
            return membership(target_sets)

    @cached_property
    def academic_universe(self) -> np.ndarray:
        """Union of all academic target keys."""
        return self.academic_membership.keys

    @cached_property
    def academic_upset(self) -> UpsetResult:
        """UpSet decomposition of the academic target sets (Figure 7)."""
        members = self.academic_membership
        with span("analysis.targets.upset"):
            return upset(members)

    # -- figures ------------------------------------------------------------------

    def _figure2(self) -> TrendFigure:
        """Normalised weekly direct-path attack counts (Figure 2)."""
        return TrendFigure(
            attack_class=AttackClass.DIRECT_PATH,
            series=self._class_series(AttackClass.DIRECT_PATH),
            takedown_weeks=[],
        )

    def _figure3(self) -> TrendFigure:
        """Normalised weekly reflection-amplification counts (Figure 3)."""
        return TrendFigure(
            attack_class=AttackClass.REFLECTION_AMPLIFICATION,
            series=self._class_series(AttackClass.REFLECTION_AMPLIFICATION),
            takedown_weeks=self._takedown_weeks(),
        )

    def _figure4(self) -> HeatmapFigure:
        """All ten normalised series as a heatmap matrix (Figure 4)."""
        series = self.main_series()
        labels = list(series)
        matrix = np.vstack([series[label].normalized for label in labels])
        return HeatmapFigure(labels=labels, matrix=matrix)

    def _figure5(self) -> ShareSeries:
        """Netscout's weekly RA/DP share with the 50% crossing (Figure 5)."""
        netscout = self.observations["Netscout"]
        dp = netscout.weekly_counts(self.calendar, AttackClass.DIRECT_PATH)
        ra = netscout.weekly_counts(
            self.calendar, AttackClass.REFLECTION_AMPLIFICATION
        )
        return share_series("Netscout", dp, ra, self.calendar)

    def _figure6(self) -> CorrelationFigure:
        """Pairwise correlation matrices with p-values (Figure 6)."""
        series = self.main_series()
        with span("analysis.correlation"):
            normalized = {
                label: weekly.normalized for label, weekly in series.items()
            }
            smoothed = {label: weekly.smoothed for label, weekly in series.items()}
            return CorrelationFigure(
                normalized=correlation_matrix(normalized, "spearman"),
                smoothed=correlation_matrix(smoothed, "spearman"),
                pearson_normalized=correlation_matrix(normalized, "pearson"),
            )

    def _figure7(self) -> UpsetResult:
        """UpSet decomposition of academic target tuples (Figure 7)."""
        return self.academic_upset

    def _figure8(self) -> HighlyVisible:
        """Highly-visible targets over time (Figure 8)."""
        members = self.academic_membership
        return highly_visible(
            members.keys[members.holding(*members.names)],
            len(members.keys),
            self.calendar,
        )

    def _figure9(self) -> FederationResult:
        """Netscout confirmation of academic target sets (Figure 9).

        The forward join uses the paper's ~28% baseline sample; the
        reverse direction is recomputed against a separate ~23% sample,
        matching the paper's two shared data sets (Section 7.2).
        """
        result = self._federate(
            "Netscout",
            self.config.netscout_baseline_fraction,
        )
        if self.config.netscout_reverse_fraction == self.config.netscout_baseline_fraction:
            return result
        reverse_result = self._federate(
            "Netscout",
            self.config.netscout_reverse_fraction,
            stream_label="federation/Netscout/reverse",
        )
        return FederationResult(
            industry_name=result.industry_name,
            baseline_size=result.baseline_size,
            forward=result.forward,
            reverse=reverse_result.reverse,
            reverse_union=reverse_result.reverse_union,
        )

    def _figure10(self) -> dict[str, TargetOverlapFigure]:
        """Weekly target overlap: telescopes and honeypots (Figure 10)."""
        return {
            "telescopes": self._overlap_figure("UCSD", "ORION"),
            "honeypots": self._overlap_figure("Hopscotch", "AmpPot"),
        }

    def _figure12(self) -> WeeklySeries:
        """NewKid's erratic single-sensor series (Appendix D, Figure 12)."""
        return self.series(
            SeriesKey("NewKid", AttackClass.REFLECTION_AMPLIFICATION)
        )

    def _figure13(self) -> FederationResult:
        """Akamai confirmation of academic target sets (Appendix G)."""
        return self._federate("Akamai", self.config.akamai_baseline_fraction)

    def _figure14(self) -> QuarterlyCorrelationFigure:
        """Quarterly pairwise correlation distributions (Appendix F)."""
        series = self.main_series()
        with span("analysis.correlation.quarterly"):
            labels = list(series)
            pairs: dict[tuple[str, str], BoxStats] = {}
            for i, a in enumerate(labels):
                for b in labels[i + 1 :]:
                    coefficients = quarterly_correlations(
                        series[a].normalized, series[b].normalized, self.calendar
                    )
                    if coefficients:
                        pairs[(a, b)] = box_stats(coefficients)
            return QuarterlyCorrelationFigure(pairs=pairs)

    # -- tables ---------------------------------------------------------------------

    def _table1(self) -> list[Table1Row]:
        """Trend symbols per observatory and industry counts (Table 1)."""
        industry = trend_counts()
        rows: list[Table1Row] = []
        with span("analysis.trends"):
            for attack_class, industry_key in (
                (AttackClass.DIRECT_PATH, "direct-path"),
                (AttackClass.REFLECTION_AMPLIFICATION, "reflection-amplification"),
            ):
                class_series = self._class_series(attack_class)
                rows.append(
                    Table1Row(
                        attack_type=attack_class.label,
                        observatory_trends={
                            label: classify_trend(weekly.normalized)
                            for label, weekly in class_series.items()
                        },
                        industry=industry[industry_key],
                    )
                )
            return rows

    def _table2(self) -> list[Table2Row]:
        """The observatory inventory (Table 2)."""
        rows = [
            Table2Row(
                platform="UCSD NT",
                type="telescope",
                attack="RSDoS",
                coverage=f"{self.observatories.telescopes[0].size / 1e6:.0f}M IPs",
                flow_identifier="protocol, src IP",
                timeout="300s",
                threshold=">=25 pkts, >=60s, >=30 pkts/60s",
            ),
            Table2Row(
                platform="ORION NT",
                type="telescope",
                attack="RSDoS",
                coverage=f"{self.observatories.telescopes[1].size / 1e3:.0f}k IPs",
                flow_identifier="protocol, src IP",
                timeout="300s",
                threshold=">=25 pkts, >=60s, >=30 pkts/60s",
            ),
        ]
        for name, attack in (
            ("Netscout", "DP+RA"),
            ("Akamai", "DP+RA"),
        ):
            rows.append(
                Table2Row(
                    platform=name,
                    type="flow",
                    attack=attack,
                    coverage="proprietary",
                    flow_identifier="hand-crafted",
                    timeout="-",
                    threshold="hand-crafted",
                )
            )
        rows.append(
            Table2Row(
                platform="IXP BH",
                type="flow",
                attack="DP+RA",
                coverage="proprietary",
                flow_identifier="UDP ampl. src port / TCP",
                timeout="-",
                threshold=">=10 IPs; >1 Gbps (RA), >100 Mbps (DP)",
            )
        )
        for honeypot in self.observatories.honeypots:
            spec = honeypot.spec
            rows.append(
                Table2Row(
                    platform=spec.name,
                    type="honeypot",
                    attack="RA",
                    coverage=f"{spec.sensor_count} IPs",
                    flow_identifier=spec.flow_identifier,
                    timeout=f"{spec.timeout_s / 60:.0f} min",
                    threshold=f">={spec.min_packets} pkts",
                )
            )
        return rows

    def _table4(self) -> list[AsRow]:
        """Top-10 ASes among highly-visible targets (Table 4)."""
        return top_target_ases(self._figure8().keys, self.plan)

    # -- the artifact registry (the public surface) ---------------------------------

    def artifacts(self) -> dict[str, "object"]:
        """The declarative artifact registry: name -> spec.

        Each :class:`~repro.core.artifacts.ArtifactSpec` carries the
        extractor, the versioned JSON schema, and the paper anchor; the
        names are the stable public identifiers shared by the service,
        the CLI, and :meth:`artifact`.
        """
        from repro.core.artifacts import ARTIFACTS

        return dict(ARTIFACTS)

    def artifact_result(self, name: str):
        """The rich in-memory result of one registered artifact.

        Use :meth:`artifact` for the versioned JSON document instead.
        """
        from repro.core.artifacts import artifact_spec

        return artifact_spec(name).build(self)

    def artifact(self, name: str) -> dict:
        """One artifact as a versioned, JSON-serialisable document.

        The envelope carries ``schema_version``, the paper anchor, and
        the study's config fingerprint; serialise it with
        :func:`repro.core.artifacts.artifact_json_bytes` for bytes that
        are bit-identical across the library, the CLI, and the service.
        """
        from repro.core.artifacts import study_envelope

        return study_envelope(self, name)

    # -- helpers --------------------------------------------------------------------

    def _federate(
        self,
        industry_name: str,
        fraction: float,
        stream_label: str | None = None,
    ) -> FederationResult:
        baseline = self.observations[industry_name].target_keys()
        rng = self._rng_factory.stream(
            stream_label or f"federation/{industry_name}"
        )
        sampled = subsample_baseline(baseline, fraction, rng)
        members = self.academic_membership
        upset_result = self._figure7()
        with span("analysis.federation"):
            return federate(members, upset_result, industry_name, sampled)

    def _overlap_figure(self, a: str, b: str) -> TargetOverlapFigure:
        members = self.academic_membership
        pair = members.bits(a, b)
        union = np.count_nonzero(members.mask & pair)
        # Held by a or b and by no other set: the mask lies inside the pair.
        exclusive = np.count_nonzero((members.mask | pair) == pair)
        universe = len(members.keys)
        return TargetOverlapFigure(
            label_a=a,
            label_b=b,
            weekly_a=weekly_target_counts(self.academic_target_sets[a], self.calendar),
            weekly_b=weekly_target_counts(self.academic_target_sets[b], self.calendar),
            weekly_shared=weekly_target_counts(
                members.keys[members.holding(a, b)], self.calendar
            ),
            union_share_of_universe=union / universe if universe else 0.0,
            exclusive_share_of_universe=exclusive / universe if universe else 0.0,
        )

    def pairwise_target_overlaps(self) -> dict[tuple[str, str], float]:
        """Directed pairwise overlap shares of academic target sets."""
        return pairwise_overlap_shares(self.academic_membership)

    # -- conformance ----------------------------------------------------------------

    def conformance(self, checks=None):
        """Evaluate the paper-conformance registry against this study.

        Returns a :class:`~repro.core.conformance.ConformanceReport`;
        checks that need a longer window than this study's calendar are
        skipped, not failed.  ``checks`` restricts evaluation to a subset.
        """
        from repro.core.conformance import evaluate_conformance

        return evaluate_conformance(self, checks)

    def fingerprints(self) -> dict[str, str]:
        """sha256 fingerprints of the study's key derived arrays.

        The payload of the golden-regression layer
        (:mod:`repro.core.golden`): weekly series, trend slopes,
        correlation matrices, and ground-truth weeklies, hashed bit-exact.
        """
        from repro.core.golden import study_fingerprints

        return study_fingerprints(self)

    def headline(self) -> dict[str, object]:
        """The study's headline findings in one dictionary.

        Convenience for quick inspection and dashboards: Table-1 trend
        symbols, the Figure-5 crossing, the Figure-7 all-four share, and
        the Table-4 leader.
        """
        table1 = self._table1()
        trends = {
            row.attack_type: {
                label.split(" ")[0]: classification.symbol
                for label, classification in row.observatory_trends.items()
            }
            for row in table1
        }
        top_ases = self._table4()
        return {
            "window": f"{self.calendar.start}..{self.calendar.end}",
            "seed": self.config.seed,
            "trends": trends,
            "ra_dp_crossing": self._figure5().last_crossing_quarter(),
            "all_four_target_share": self._figure7().seen_by_all().share,
            "top_target_as": top_ases[0].name if top_ases else None,
        }


def _label_class(label: str) -> AttackClass:
    """Attack class encoded in a main-series label."""
    if label in ("UCSD", "ORION") or label.endswith("(DP)"):
        return AttackClass.DIRECT_PATH
    return AttackClass.REFLECTION_AMPLIFICATION


def run_study(config: StudyConfig | None = None) -> Study:
    """Build a study and force the simulation to run."""
    study = Study(config)
    study.observations  # noqa: B018 - trigger the cached pipeline
    return study
