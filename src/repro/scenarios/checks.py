"""Per-scenario conformance suites: the sibling papers' findings as checks.

Each scenario family (:mod:`repro.scenarios.config`) carries its own
declarative check suite in the style of :mod:`repro.core.conformance` —
paper anchor, severity, drift margin — asserting the *qualitative* finding
the family reproduces:

* booter takedown — dip-then-recovery within weeks, with a visible
  rebranding step ("DDoS Hide & Seek", IMC 2019);
* cloud observatory — short attacks invisible, auto-mitigated attacks
  truncated so the biggest attacks look short ("One Year of DDoS Attacks
  Against a Cloud Provider", DSN 2024);
* amplification emergence — rise/peak/decay ordering with a persistent
  tail ("DDoS Never Dies", PAM 2021);
* honeypot pool — platform-coverage ordering, ground-truth convergence
  beyond a pool-size threshold, placement-sensitive protocol affinity
  (the AmpPot convergence analysis, RAID 2015).

The suites live in their own registry, separate from the baseline 27
checks: :func:`repro.core.conformance.default_checks` appends
:func:`scenario_checks_for` only when a study config actually carries a
scenario, so baseline evaluations never see (or import) any of this.
"""

from __future__ import annotations

import math

import numpy as np

from repro.attacks.events import AttackClass
from repro.core.conformance import Check, Outcome, StudyView
from repro.scenarios.config import SCENARIO_FAMILIES, ScenarioConfig

#: Scenario-check registries, one per family, in registration order.
SCENARIO_REGISTRY: dict[str, dict[str, Check]] = {
    family: {} for family in SCENARIO_FAMILIES
}


def scenario_check(
    family: str,
    check_id: str,
    anchor: str,
    claim: str,
    min_weeks: int = 0,
):
    """Decorator registering a predicate under one scenario family."""

    def register(predicate):
        registry = SCENARIO_REGISTRY[family]
        if check_id in registry:
            raise ValueError(f"duplicate scenario check id {check_id!r}")
        registry[check_id] = Check(
            check_id=check_id,
            anchor=anchor,
            claim=claim,
            predicate=predicate,
            min_weeks=min_weeks,
        )
        return predicate

    return register


def scenario_checks_for(scenario: ScenarioConfig | None) -> tuple[Check, ...]:
    """The combined suite of a scenario config's active families."""
    if scenario is None:
        return ()
    checks: list[Check] = []
    for family in SCENARIO_FAMILIES:
        if getattr(scenario, family) is not None:
            checks.extend(SCENARIO_REGISTRY[family].values())
    return tuple(checks)


# -- shared helpers ------------------------------------------------------------


def _normalized_weekly_supply(view: StudyView) -> np.ndarray:
    """Measured weekly ground-truth totals over the *takedown-free* model
    expectation.

    Dividing by the no-takedown expectation removes the landscape's
    seasonal/secular shape, so what remains tracks the booter-capacity
    multiplier (plus supply noise and campaign spikes) — the cleanest
    view of a takedown's dip-and-recovery footprint.
    """
    study = view.study
    landscape = study.landscape
    booters = landscape.booters
    campaigns = study.campaigns
    calendar = study.calendar
    measured = study.ground_truth_weekly(
        AttackClass.DIRECT_PATH
    ) + study.ground_truth_weekly(AttackClass.REFLECTION_AMPLIFICATION)
    expected = np.zeros(calendar.n_weeks)
    for day in range(calendar.n_weeks * 7):
        capacity = booters.capacity(day)
        active = campaigns.active(day)
        for attack_class in AttackClass:
            rate = landscape.expected_count(attack_class, day)
            # Campaign extras are drawn as Poisson(base x intensity), so the
            # deterministic expectation folds them in — otherwise a campaign
            # spike near the takedown masquerades as supply recovery (or its
            # absence).
            boost = 1.0 + sum(
                campaign.intensity
                for campaign in active
                if campaign.attack_class is attack_class
            )
            expected[day // 7] += rate * boost / capacity
    return measured / np.maximum(expected, 1e-12)


def _ra_week_mask(observations, low: int, high: int) -> np.ndarray:
    """Reflection records of one observatory inside a week window."""
    weeks = observations.day // 7
    return (
        (observations.attack_class == int(AttackClass.REFLECTION_AMPLIFICATION))
        & (weeks >= low)
        & (weeks < high)
    )


def _vector_share(observations, vector_id: int, low: int, high: int) -> tuple[float, int]:
    """(share, record count) of one vector among RA records in a window."""
    in_window = _ra_week_mask(observations, low, high)
    total = int(in_window.sum())
    if total == 0:
        return 0.0, 0
    hits = int((in_window & (observations.vector_id == vector_id)).sum())
    return hits / total, total


# -- booter takedown ("DDoS Hide & Seek") --------------------------------------


@scenario_check(
    "booter",
    "BT.dip",
    "Hide&Seek §5.1",
    "attack supply drops sharply in the weeks right after the takedown",
    min_weeks=24,
)
def _booter_dip(view: StudyView) -> Outcome:
    scenario = view.study.config.scenario.booter
    norm = _normalized_weekly_supply(view)
    week = scenario.takedown_week
    pre = norm[max(0, week - 6) : week]
    dip_window = norm[week + 1 : min(len(norm), week + 3)]
    dip = 1.0 - float(np.mean(dip_window)) / float(np.mean(pre))
    floor = 0.4 * scenario.capacity_removed
    return Outcome(
        ok=dip >= floor,
        measured=f"post-takedown dip {dip:.2f}",
        expected=f">= {floor:.2f} (0.4x the seized {scenario.capacity_removed:.2f})",
        delta=dip - floor,
    )


@scenario_check(
    "booter",
    "BT.trough",
    "Hide&Seek §5.1",
    "the supply trough lands within two weeks of the action",
    min_weeks=24,
)
def _booter_trough(view: StudyView) -> Outcome:
    scenario = view.study.config.scenario.booter
    norm = _normalized_weekly_supply(view)
    week = scenario.takedown_week
    low = max(0, week - 6)
    high = min(len(norm), week + 8)
    trough = low + int(np.argmin(norm[low:high]))
    ok = week <= trough <= week + 2
    return Outcome(
        ok=ok,
        measured=f"trough at week {trough}",
        expected=f"in weeks [{week}, {week + 2}]",
        delta=float(min(trough - week, week + 2 - trough)),
    )


@scenario_check(
    "booter",
    "BT.recovery",
    "Hide&Seek §5.3",
    "supply recovers to near pre-takedown levels within weeks, not months",
    min_weeks=24,
)
def _booter_recovery(view: StudyView) -> Outcome:
    scenario = view.study.config.scenario.booter
    norm = _normalized_weekly_supply(view)
    week = scenario.takedown_week
    pre = float(np.mean(norm[max(0, week - 6) : week]))
    recovered_week = week + int(
        math.ceil(
            scenario.recovery_weeks
            + scenario.rebrand_delay_weeks
            + scenario.rebrand_ramp_weeks
        )
    ) + 2
    tail = norm[min(recovered_week, len(norm) - 3) :]
    ratio = float(np.mean(tail)) / pre
    floor = 0.85
    return Outcome(
        ok=ratio >= floor,
        measured=f"recovered/pre supply ratio {ratio:.2f}",
        expected=f">= {floor:.2f} after week {recovered_week}",
        delta=ratio - floor,
    )


@scenario_check(
    "booter",
    "BT.rebrand",
    "Hide&Seek §4.2",
    "rebranded services return a visible capacity step after their delay",
    min_weeks=24,
)
def _booter_rebrand(view: StudyView) -> Outcome:
    scenario = view.study.config.scenario.booter
    booters = view.study.landscape.booters
    day = scenario.takedown_day
    before = booters.capacity(
        day + int(scenario.rebrand_delay_weeks * 7) - 1
    )
    after = booters.capacity(
        day + int((scenario.rebrand_delay_weeks + scenario.rebrand_ramp_weeks) * 7) + 1
    )
    step = after - before
    floor = 0.9 * scenario.capacity_removed * scenario.rebrand_share
    return Outcome(
        ok=step >= floor,
        measured=f"capacity step {step:.3f} across the rebrand ramp",
        expected=f">= {floor:.3f} (0.9 x removed x rebrand share)",
        delta=step - floor,
    )


# -- cloud observatory ("One Year of DDoS Attacks Against a Cloud Provider") ---


@scenario_check(
    "cloud",
    "CLD.window",
    "Cloud1Y §3.2",
    "attacks shorter than the detection window never surface as alerts",
    min_weeks=8,
)
def _cloud_window(view: StudyView) -> Outcome:
    policy = view.study.config.scenario.cloud
    cloud = view.study.observations["Cloud"]
    if len(cloud) == 0:
        return Outcome(False, "no cloud records", ">= 1 record")
    shortest = float(np.nanmin(cloud.duration))
    return Outcome(
        ok=shortest >= policy.detection_window_s,
        measured=f"shortest observed attack {shortest:.0f}s",
        expected=f">= detection window {policy.detection_window_s:.0f}s",
        delta=(shortest - policy.detection_window_s) / policy.detection_window_s,
    )


@scenario_check(
    "cloud",
    "CLD.inversion",
    "Cloud1Y §5.2",
    "auto-mitigation makes the biggest attacks look *shorter* than small ones",
    min_weeks=8,
)
def _cloud_inversion(view: StudyView) -> Outcome:
    policy = view.study.config.scenario.cloud
    cloud = view.study.observations["Cloud"]
    big = cloud.bps >= policy.auto_mitigation_threshold_bps
    if int(big.sum()) < 10 or int((~big).sum()) < 10:
        return Outcome(False, "too few records on one side of the threshold", ">= 10 each")
    median_big = float(np.nanmedian(cloud.duration[big]))
    median_small = float(np.nanmedian(cloud.duration[~big]))
    return Outcome(
        ok=median_big < median_small,
        measured=(
            f"median duration {median_big:.0f}s above threshold vs "
            f"{median_small:.0f}s below"
        ),
        expected="above-threshold median strictly smaller",
        delta=(median_small - median_big) / median_small,
    )


@scenario_check(
    "cloud",
    "CLD.capped",
    "Cloud1Y §5.2",
    "most mitigable attacks are reported at exactly the time-to-mitigate",
    min_weeks=8,
)
def _cloud_capped(view: StudyView) -> Outcome:
    policy = view.study.config.scenario.cloud
    cloud = view.study.observations["Cloud"]
    big = cloud.bps >= policy.auto_mitigation_threshold_bps
    n_big = int(big.sum())
    if n_big < 10:
        return Outcome(False, f"only {n_big} above-threshold records", ">= 10")
    capped = float(
        np.mean(cloud.duration[big] == policy.time_to_mitigate_s)
    )
    floor = 0.4
    return Outcome(
        ok=capped >= floor,
        measured=f"{capped:.2f} of above-threshold alerts capped at "
        f"{policy.time_to_mitigate_s:.0f}s",
        expected=f">= {floor:.2f}",
        delta=capped - floor,
    )


@scenario_check(
    "cloud",
    "CLD.truncation",
    "Cloud1Y §5.3",
    "the cloud feed under-reports attack durations relative to an on-path feed",
    min_weeks=8,
)
def _cloud_truncation(view: StudyView) -> Outcome:
    cloud = view.study.observations["Cloud"]
    netscout = view.study.observations["Netscout"]
    if len(cloud) == 0 or len(netscout) == 0:
        return Outcome(False, "missing records", "both feeds populated")
    cloud_mean = float(np.nanmean(cloud.duration))
    netscout_mean = float(np.nanmean(netscout.duration))
    return Outcome(
        ok=cloud_mean < netscout_mean,
        measured=f"mean duration cloud {cloud_mean:.0f}s vs Netscout {netscout_mean:.0f}s",
        expected="cloud mean strictly smaller",
        delta=(netscout_mean - cloud_mean) / netscout_mean,
    )


# -- amplification emergence ("DDoS Never Dies") -------------------------------


@scenario_check(
    "emergence",
    "EMG.pre-quiet",
    "NeverDies §4",
    "the emerging vector is absent before its rise week",
    min_weeks=16,
)
def _emergence_pre_quiet(view: StudyView) -> Outcome:
    scenario = view.study.config.scenario.emergence
    netscout = view.study.observations["Netscout"]
    share, total = _vector_share(
        netscout, scenario.vector_catalogue_id, 0, scenario.rise_week
    )
    return Outcome(
        ok=total > 0 and share == 0.0,
        measured=f"{share:.3f} share across {total} pre-rise RA alerts",
        expected="exactly 0",
        delta=-share,
    )


@scenario_check(
    "emergence",
    "EMG.peak",
    "NeverDies §4.1",
    "at its peak the emerging vector claims a major share of the RA mix",
    min_weeks=16,
)
def _emergence_peak(view: StudyView) -> Outcome:
    scenario = view.study.config.scenario.emergence
    netscout = view.study.observations["Netscout"]
    implied = scenario.peak_weight / (1.0 + scenario.peak_weight)
    share, total = _vector_share(
        netscout,
        scenario.vector_catalogue_id,
        scenario.peak_week - 2,
        scenario.peak_week + 3,
    )
    floor = 0.5 * implied
    return Outcome(
        ok=total >= 20 and share >= floor,
        measured=f"peak-window share {share:.2f} ({total} RA alerts)",
        expected=f">= {floor:.2f} (half the weight-implied {implied:.2f})",
        delta=share - floor,
    )


@scenario_check(
    "emergence",
    "EMG.ordering",
    "NeverDies §4.2",
    "vector prevalence rises to the peak and falls after it",
    min_weeks=16,
)
def _emergence_ordering(view: StudyView) -> Outcome:
    scenario = view.study.config.scenario.emergence
    netscout = view.study.observations["Netscout"]
    vid = scenario.vector_catalogue_id
    rising, _ = _vector_share(
        netscout, vid, scenario.rise_week, scenario.peak_week - 2
    )
    peak, _ = _vector_share(
        netscout, vid, scenario.peak_week - 2, scenario.peak_week + 3
    )
    post, _ = _vector_share(
        netscout, vid, scenario.decay_week, view.study.calendar.n_weeks
    )
    ok = rising < peak and post < peak
    return Outcome(
        ok=ok,
        measured=f"shares rise {rising:.2f} -> peak {peak:.2f} -> post {post:.2f}",
        expected="rise < peak and post < peak",
        delta=min(peak - rising, peak - post),
    )


@scenario_check(
    "emergence",
    "EMG.persists",
    "NeverDies §5",
    "the vector never dies: a persistent tail remains after the decay",
    min_weeks=16,
)
def _emergence_persists(view: StudyView) -> Outcome:
    scenario = view.study.config.scenario.emergence
    netscout = view.study.observations["Netscout"]
    implied_floor = scenario.floor_weight / (1.0 + scenario.floor_weight)
    share, total = _vector_share(
        netscout,
        scenario.vector_catalogue_id,
        scenario.decay_week,
        view.study.calendar.n_weeks,
    )
    floor = 0.25 * implied_floor
    return Outcome(
        ok=total >= 20 and share >= floor and share > 0,
        measured=f"post-decay share {share:.3f} ({total} RA alerts)",
        expected=f">= {floor:.3f} and > 0",
        delta=share - floor,
    )


# -- honeypot pool convergence (AmpPot) ----------------------------------------


def _hp_coverage(view: StudyView, name: str) -> float:
    """Share of ground-truth RA events a honeypot platform recorded."""
    total = float(
        np.sum(
            view.study.ground_truth_weekly(AttackClass.REFLECTION_AMPLIFICATION)
        )
    )
    if total == 0:
        return 0.0
    return len(view.study.observations[name]) / total


@scenario_check(
    "honeypot_pool",
    "HPC.ordering",
    "AmpPot §5",
    "the large honeypot farms dominate the single-sensor platform at any pool size",
    min_weeks=16,
)
def _hp_ordering(view: StudyView) -> Outcome:
    hopscotch = _hp_coverage(view, "Hopscotch")
    amppot = _hp_coverage(view, "AmpPot")
    newkid = _hp_coverage(view, "NewKid")
    smaller = min(hopscotch, amppot)
    ok = smaller >= 20.0 * newkid and smaller > 0
    return Outcome(
        ok=ok,
        measured=(
            f"coverage hopscotch {hopscotch:.3f}, amppot {amppot:.3f}, "
            f"newkid {newkid:.4f}"
        ),
        expected=">= 20x NewKid for both farms",
        delta=(smaller - 20.0 * newkid),
    )


@scenario_check(
    "honeypot_pool",
    "HPC.convergence",
    "AmpPot §5.2",
    "beyond the pool-size threshold the farm's weekly series converges on ground truth",
    min_weeks=16,
)
def _hp_convergence(view: StudyView) -> Outcome:
    study = view.study
    pool = study.config.scenario.honeypot_pool
    truth = study.ground_truth_weekly(AttackClass.REFLECTION_AMPLIFICATION)
    weekly = study.observations["Hopscotch"].weekly_counts(
        study.calendar, AttackClass.REFLECTION_AMPLIFICATION
    )
    if float(np.std(weekly)) == 0 or float(np.std(truth)) == 0:
        return Outcome(False, "degenerate weekly series", "non-constant series")
    correlation = float(np.corrcoef(weekly, truth)[0, 1])
    # Effective per-event selection probability of the scaled pool; the
    # convergence threshold of the AmpPot analysis maps to it saturating.
    # Even a saturated pool tops out near 0.85: the farm only sees attacks
    # whose reflector rotation includes its sensors, an irreducible
    # breadth filter on top of the weekly supply noise.
    effective = 1.0 - (1.0 - 0.70) ** pool.scale
    floor = 0.80 if effective >= 0.6 else 0.55
    return Outcome(
        ok=correlation >= floor,
        measured=f"weekly correlation {correlation:.2f} at pool scale {pool.scale:g}",
        expected=f">= {floor:.2f} (effective selection {effective:.2f})",
        delta=correlation - floor,
    )


@scenario_check(
    "honeypot_pool",
    "HPC.overlap",
    "AmpPot §5.2",
    "pairwise farm overlap grows with the pool size",
    min_weeks=16,
)
def _hp_overlap(view: StudyView) -> Outcome:
    pool = view.study.config.scenario.honeypot_pool
    overlaps = view.overlaps
    share = min(
        overlaps[("Hopscotch", "AmpPot")], overlaps[("AmpPot", "Hopscotch")]
    )
    # Overlap floors per pool scale, interpolated: larger pools see more
    # broadly, so the same reflector lists hit both farms more often.
    scales = np.array([0.25, 0.5, 1.0, 4.0])
    floors = np.array([0.10, 0.18, 0.30, 0.45])
    floor = float(np.interp(pool.scale, scales, floors))
    return Outcome(
        ok=share >= floor,
        measured=f"min pairwise overlap {share:.2f} at pool scale {pool.scale:g}",
        expected=f">= {floor:.2f}",
        delta=share - floor,
    )


@scenario_check(
    "honeypot_pool",
    "HPC.affinity",
    "AmpPot §6",
    "protocol affinity follows sensor placement: specialised pools skew CHARGEN",
    min_weeks=16,
)
def _hp_affinity(view: StudyView) -> Outcome:
    from repro.attacks.vectors import vector_id

    study = view.study
    pool = study.config.scenario.honeypot_pool
    chargen = vector_id("CHARGEN")

    def chargen_share(name: str) -> float:
        observations = study.observations[name]
        mask = _ra_week_mask(observations, 0, study.calendar.n_weeks)
        total = int(mask.sum())
        if total == 0:
            return 0.0
        return int((mask & (observations.vector_id == chargen)).sum()) / total

    amppot = chargen_share("AmpPot")
    hopscotch = chargen_share("Hopscotch")
    if hopscotch == 0:
        return Outcome(False, "no Hopscotch RA records", "populated feed")
    ratio = amppot / hopscotch
    if pool.placement == "paper":
        # Placement bias compresses as the pool saturates: once every
        # sensor sees nearly everything, protocol affinity stops mattering,
        # so the expected skew shrinks with scale.
        scales = np.array([0.25, 1.0, 4.0])
        skews = np.array([2.0, 1.3, 1.1])
        floor = float(np.interp(pool.scale, scales, skews))
        ok = ratio >= floor
        expected = f">= {floor:.2f} (AmpPot leans CHARGEN)"
        delta = ratio - floor
    else:
        ok = 0.6 <= ratio <= 1.5
        expected = "in [0.6, 1.5] (uniform placement flattens affinity)"
        delta = min(ratio - 0.6, 1.5 - ratio)
    return Outcome(
        ok=ok,
        measured=f"AmpPot/Hopscotch CHARGEN-share ratio {ratio:.2f} "
        f"({pool.placement} placement)",
        expected=expected,
        delta=delta,
    )
