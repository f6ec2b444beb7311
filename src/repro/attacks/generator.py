"""Ground-truth attack-event generator.

Synthesises a contiguous range of study days as one columnar
:class:`~repro.attacks.events.ShardBatch`, deterministically from the study
seed.  Per-day expected counts come from the
:class:`~repro.attacks.landscape.LandscapeModel` plus active campaigns;
per-event attributes are sampled with numpy so a full 4.5-year run stays
fast.

Important mechanics and their grounding in the paper:

* **Target recurrence** — a bounded pool of recently attacked victims is
  re-hit with configurable probability, producing the ≈2:1 ratio of
  (date, IP) tuples to distinct IPs the paper reports in Section 7.
* **Cross-type pairing** — with small probability (boosted for hosting-AS
  targets) an event spawns a partner of the *other* attack class on the
  same target: the multi-vector attacks against DDoS-protected hosters
  behind the paper's "highly-visible targets" (Section 7.1).
* **Honeypot reflector selection** — each reflection event pre-draws which
  honeypot platforms its reflector list happened to include, with
  per-platform base rates and per-vector affinities (AmpPot leans CHARGEN,
  Hopscotch leans CLDAP — Section 7.3).
* **Telescope avoidance** — a small share of attackers exclude known
  telescope ranges from spoofed-source rotation (reason *(iii)* in
  Section 6.1); their events carry zero telescope visibility bias.

Randomness is organised for **sharded execution**: every study day draws
from its own named RNG stream (``attacks/generator/day/<n>``) and the
weekly supply noise from a dedicated stream, so a generator confined to a
``day_range`` produces exactly the same per-day draws as a full run.  The
only cross-day state is the recent-victim recurrence pool, which starts
empty at the beginning of each generator's range — the property the
process-parallel executor in :mod:`repro.util.parallel` relies on.

The day loop only draws: each segment (one attack-class/campaign row of a
day) takes its variates in as few numpy calls as the stream order allows,
and everything that needs no randomness — start times, the duration
floor, bit rates, partner scaling, honeypot masks, per-segment constant
columns — happens once per shard in :meth:`GroundTruthGenerator.shard_batch`'s
assembly step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.campaigns import Campaign, CampaignModel, prefix_columns
from repro.attacks.events import (
    EVENT_COLUMNS,
    HP_BIT,
    OBSERVATORY_KEYS,
    AttackClass,
    ShardBatch,
)
from repro.attacks.landscape import LandscapeModel
from repro.attacks.vectors import VECTORS, VectorKind, vector_ids
from repro.net.asn import ASKind
from repro.net.plan import InternetPlan
from repro.obs import counter, histogram, span
from repro.util.calendar import SECONDS_PER_DAY, StudyCalendar
from repro.util.rng import RngFactory

#: Honeypot platforms with reflector-selection base probabilities.
HP_BASE_SELECTION = {"hopscotch": 0.70, "amppot": 0.66, "newkid": 0.004}

#: Per-platform, per-vector selection affinity (default 1.0).  Encodes the
#: paper's protocol-composition differences between the honeypots.
HP_VECTOR_AFFINITY: dict[str, dict[str, float]] = {
    "amppot": {"CHARGEN": 1.6, "CLDAP": 0.45, "Memcached": 0.0},
    "hopscotch": {"CLDAP": 1.6, "CHARGEN": 0.5},
    "newkid": {"Memcached": 0.0},
}

#: Visibility-bias row of events outside any campaign.
_NEUTRAL_BIAS = (1.0,) * len(OBSERVATORY_KEYS)


@dataclass(frozen=True)
class GeneratorConfig:
    """Sampling parameters for the ground-truth generator.

    The pps/duration scales are calibrated for the *relative* visibility
    relationships of the paper (e.g. ORION's detection floor is ≈24x
    UCSD's, so ORION must see roughly 6x fewer targets), not for absolute
    industry traffic numbers.
    """

    #: weekly lognormal supply noise (sigma).
    weekly_noise_sigma: float = 0.12
    #: probability a target is re-drawn from the recent-victim pool.
    recurrence_probability: float = 0.60
    #: capacity of the recent-victim pool.
    victim_pool_size: int = 20_000
    #: probability an attack uses a second vector of the same class.
    multi_vector_probability: float = 0.10
    #: base probability an event spawns a partner of the other class.
    cross_type_probability: float = 0.05
    #: multiplier on the above for targets in hosting ASes.
    cross_type_hosting_boost: float = 2.0
    #: size-dependence of pairing: multiplier grows as sqrt(pps/median),
    #: capped here.  Big attacks are overwhelmingly multi-vector (targets
    #: that can afford DDoS protection force attackers to combine types).
    cross_type_size_cap: float = 10.0
    #: probability a reflection attack carpet-bombs a prefix.
    carpet_probability: float = 0.03
    #: carpet probability for campaigns flagged as carpet waves.
    carpet_campaign_probability: float = 0.55
    #: attack duration: lognormal (median seconds, sigma); floored at 60 s.
    duration_median_s: float = 600.0
    duration_sigma: float = 1.1
    #: direct-path attack rate: lognormal (median pps, sigma).
    dp_pps_median: float = 40_000.0
    dp_pps_sigma: float = 2.2
    #: reflection attack rate at the victim (amplified): lognormal.
    ra_pps_median: float = 50_000.0
    ra_pps_sigma: float = 2.0
    #: share of attack packets that elicit victim responses (backscatter).
    victim_response_ratio: float = 0.01
    #: probability an attacker excludes known telescopes from rotation.
    telescope_avoidance_probability: float = 0.02


class _VictimPool:
    """Bounded FIFO pool of recently attacked (target, ASN) pairs.

    Stored as parallel circular-buffer arrays so a whole segment's
    recurrence draws and pushes are two vectorised operations.  Recurrence
    samples from the pool as it stood when the segment started; pushes
    land afterwards — the day-to-day coupling the paper's ≈2:1
    tuples-to-IPs ratio rests on is unchanged.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._targets = np.empty(capacity, dtype=np.int64)
        self._asns = np.empty(capacity, dtype=np.int64)
        self._size = 0
        self._cursor = 0

    def sample_many(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``count`` uniform draws (with replacement) from the pool."""
        picks = rng.integers(self._size, size=count)
        return self._targets[picks], self._asns[picks]

    def push_many(self, targets: np.ndarray, asns: np.ndarray) -> None:
        """Append pairs in order, overwriting the oldest beyond capacity."""
        n = len(targets)
        capacity = self._capacity
        if n >= capacity:
            targets = targets[-capacity:]
            asns = asns[-capacity:]
            n = capacity
        free = min(capacity - self._size, n)
        if free:
            self._targets[self._size : self._size + free] = targets[:free]
            self._asns[self._size : self._size + free] = asns[:free]
            self._size += free
        wrapped = n - free
        if wrapped:
            slots = (self._cursor + np.arange(wrapped)) % capacity
            self._targets[slots] = targets[free:]
            self._asns[slots] = asns[free:]
            self._cursor = (self._cursor + wrapped) % capacity

    def __len__(self) -> int:
        return self._size


@dataclass
class _ClassSampler:
    """Pre-extracted vector ids and weight CDF for one attack class.

    Draws by inverting the precomputed CDF with one ``searchsorted`` —
    ``rng.choice(p=...)`` re-validates and re-normalises the weights on
    every call, which dominated the per-segment cost.
    """

    ids: np.ndarray
    cumulative: np.ndarray

    @classmethod
    def for_kind(cls, kind: VectorKind) -> "_ClassSampler":
        ids = np.asarray(vector_ids(kind), dtype=np.int16)
        weights = np.asarray([VECTORS[i].weight for i in ids], dtype=np.float64)
        return cls(ids=ids, cumulative=np.cumsum(weights / weights.sum()))

    @classmethod
    def with_weight_override(
        cls, kind: VectorKind, overrides: dict[int, float]
    ) -> "_ClassSampler":
        """A sampler with some catalogue weights replaced (then renormalised).

        Draw structure is identical to :meth:`for_kind` — same id array,
        same single uniform per event — so swapping samplers per week
        perturbs no other RNG stream.
        """
        ids = np.asarray(vector_ids(kind), dtype=np.int16)
        weights = np.asarray(
            [overrides.get(int(i), VECTORS[i].weight) for i in ids],
            dtype=np.float64,
        )
        return cls(ids=ids, cumulative=np.cumsum(weights / weights.sum()))

    def pick(self, uniforms: np.ndarray) -> np.ndarray:
        """The int16 vector id each uniform selects."""
        picks = self.cumulative.searchsorted(uniforms, side="right")
        return self.ids[np.minimum(picks, len(self.ids) - 1)]


class _Segments:
    """The draws of one shard's segments, in generation order.

    A segment is one attack-class/campaign row of a day (or the partners
    one row spawned).  The first group of lists gains one entry per
    segment; the others only for the segments that drew them, in the
    order the assembly's masks select them.
    """

    def __init__(self) -> None:
        # One entry per segment.
        self.counts: list[int] = []
        self.days: list[int] = []
        self.classes: list[int] = []
        self.partner: list[bool] = []
        self.bias_rows: list[tuple[float, ...]] = []
        self.targets: list[np.ndarray] = []
        self.asns: list[np.ndarray] = []
        #: sorted fractions of the day at which the events start.
        self.fractions: list[np.ndarray] = []
        self.durations: list[np.ndarray] = []
        #: rates before partner scaling.
        self.pps: list[np.ndarray] = []
        self.vectors: list[np.ndarray] = []
        self.multi: list[np.ndarray] = []
        self.carpets: list[np.ndarray] = []
        # Only where drawn.
        self.secondaries: list[np.ndarray] = []
        self.carpet_lengths: list[np.ndarray] = []
        #: per-event size boost of each partner segment.
        self.scales: list[np.ndarray] = []
        #: direct-path segments: spoofed share, and a (2, n) block of the
        #: spoofed and telescope-avoidance uniforms.
        self.spoofed_shares: list[float] = []
        self.direct_draws: list[np.ndarray] = []
        #: reflection segments: reflector-list breadth, and a (4, n) block
        #: of the three honeypot selections plus telescope avoidance.
        self.breadths: list[np.ndarray] = []
        self.reflection_draws: list[np.ndarray] = []
        self.campaign_events = 0
        self.partner_events = 0


class GroundTruthGenerator:
    """Synthesises the ground truth of a range of study days.

    ``day_range`` restricts the generator to a contiguous ``[start, stop)``
    slice of study days — the shard unit of the parallel executor (a
    one-day batch is ``day_range=(d, d + 1)``).  Each day's events are
    drawn from a day-keyed RNG stream, so the per-day output is identical
    however the window is partitioned; only the recent-victim recurrence
    pool (which starts empty per generator) couples consecutive days
    within one range.
    """

    def __init__(
        self,
        plan: InternetPlan,
        calendar: StudyCalendar,
        landscape: LandscapeModel,
        campaigns: CampaignModel,
        *,
        rng_factory: RngFactory,
        config: GeneratorConfig | None = None,
        day_range: tuple[int, int] | None = None,
        scenario=None,
    ) -> None:
        self.plan = plan
        self.calendar = calendar
        self.landscape = landscape
        self.campaigns = campaigns
        self.config = config or GeneratorConfig()
        self.scenario = scenario
        if day_range is None:
            day_range = (0, calendar.n_days)
        start, stop = day_range
        if not 0 <= start < stop <= calendar.n_days:
            raise ValueError(
                f"day_range {day_range} outside study window "
                f"(0..{calendar.n_days})"
            )
        self.day_range = (int(start), int(stop))
        self._factory = rng_factory
        self._pool = _VictimPool(self.config.victim_pool_size)
        self._samplers = {
            AttackClass.DIRECT_PATH: _ClassSampler.for_kind(VectorKind.DIRECT),
            AttackClass.REFLECTION_AMPLIFICATION: _ClassSampler.for_kind(
                VectorKind.REFLECTION
            ),
        }
        config = self.config
        self._median_pps = {
            AttackClass.DIRECT_PATH: config.dp_pps_median,
            AttackClass.REFLECTION_AMPLIFICATION: config.ra_pps_median,
        }
        # (mean, sigma) of the lognormal duration and per-class rate draws.
        self._duration_params = (
            np.log(config.duration_median_s),
            config.duration_sigma,
        )
        self._pps_params = {
            AttackClass.DIRECT_PATH: (
                np.log(config.dp_pps_median),
                config.dp_pps_sigma,
            ),
            AttackClass.REFLECTION_AMPLIFICATION: (
                np.log(config.ra_pps_median),
                config.ra_pps_sigma,
            ),
        }
        self._packet_size = np.asarray(
            [vector.packet_size for vector in VECTORS], dtype=np.float64
        )
        self._hosting_asns = np.asarray(
            sorted(info.asn for info in plan.ases if info.kind is ASKind.HOSTING),
            dtype=np.int64,
        )
        self._campaign_prefixes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._hp_probability_lut = self._build_hp_probability_lut(
            scenario.honeypot_pool if scenario is not None else None
        )
        self._emergence = scenario.emergence if scenario is not None else None
        self._ra_weekly_samplers: dict[int, _ClassSampler] = {}
        self._weekly_noise = self._draw_weekly_noise()

    def _draw_weekly_noise(self) -> dict[AttackClass, np.ndarray]:
        """Weekly lognormal supply noise, one factor per class per week.

        Each class draws from its own dedicated stream so every day-range
        shard sees the same factors as a full run, and — because week ``w``
        is always the ``w``-th draw of its class stream — a shorter study
        window sees exactly the factors of a longer window's first weeks
        (calendar-prefix consistency).
        """
        sigma = self.config.weekly_noise_sigma
        return {
            attack_class: self._factory.stream(
                f"attacks/generator/weekly-noise/{attack_class.name}"
            ).lognormal(
                mean=-0.5 * sigma * sigma, sigma=sigma, size=self.calendar.n_weeks
            )
            for attack_class in AttackClass
        }

    @staticmethod
    def _build_hp_probability_lut(pool=None) -> dict[str, np.ndarray]:
        """Per-platform base selection probability indexed by vector id.

        A :class:`~repro.scenarios.config.HoneypotPoolScenario` rescales
        the table: ``placement="uniform"`` drops the per-vector
        affinities, and ``scale`` treats sensors as independent draws
        (``p -> 1 - (1 - p) ** scale``).  Only the probabilities change —
        the per-event draw count is fixed — so the baseline table
        (``pool=None``) is byte-identical to the pre-scenario one.
        """
        lut = {
            platform: np.asarray(
                [
                    HP_BASE_SELECTION[platform]
                    * HP_VECTOR_AFFINITY.get(platform, {}).get(vector.name, 1.0)
                    for vector in VECTORS
                ],
                dtype=np.float64,
            )
            for platform in HP_BIT
        }
        if pool is None:
            return lut
        scaled: dict[str, np.ndarray] = {}
        for platform, probabilities in lut.items():
            if pool.placement == "uniform":
                probabilities = np.full_like(
                    probabilities, HP_BASE_SELECTION[platform]
                )
            clipped = np.minimum(1.0, probabilities)
            scaled[platform] = 1.0 - (1.0 - clipped) ** pool.scale
        return scaled

    # -- synthesis ------------------------------------------------------------

    def shard_batch(self) -> ShardBatch:
        """Synthesise the generator's whole day range as one columnar batch.

        Days are walked in order, each drawing from its own RNG stream, so
        per-day output does not depend on which other days were generated
        first; only the victim recurrence pool carries state between
        consecutive days.  The segments' draws are then assembled into one
        struct-of-arrays block for the observatories to sweep.
        """
        start, stop = self.day_range
        segments = _Segments()
        day_totals = []
        for day in range(start, stop):
            with span("generate.day"):
                day_totals.append(self._generate_day(segments, day))
        with span("generate.assemble"):
            batch = self._assemble(segments)
        self._count_shard(batch, segments, day_totals)
        return batch

    def _generate_day(self, segments: _Segments, day: int) -> int:
        """Draw one day's segments and return how many events they hold.

        Base classes and campaigns come first, then their partners.
        """
        rng = self._factory.stream(f"attacks/generator/day/{day}")
        week = self.calendar.week_of_day(day)
        active = self.campaigns.active(day)

        rows: list[tuple[AttackClass, int, Campaign | None]] = []
        for attack_class in AttackClass:
            base = self.landscape.expected_count(attack_class, day)
            base *= self._weekly_noise[attack_class][week]
            rows.append((attack_class, int(rng.poisson(base)), None))
            for campaign in active:
                if campaign.attack_class is attack_class:
                    n_extra = int(rng.poisson(base * campaign.intensity))
                    rows.append((attack_class, n_extra, campaign))

        first = len(segments.counts)
        for attack_class, count, campaign in rows:
            if count:
                self._draw_segment(rng, segments, day, attack_class, count, campaign)
        self._draw_partners(rng, segments, day, first)
        return sum(segments.counts[first:])

    def _count_shard(
        self, batch: ShardBatch, segments: _Segments, day_totals: list[int]
    ) -> None:
        """Shard pipeline metrics (pure accounting; no RNG touched).

        One ``generate.batch_events`` observation per day, in day order;
        the ``generate.events*`` counters exist only once a shard has
        events.
        """
        counter("generate.days").inc(len(day_totals))
        batch_events = histogram("generate.batch_events")
        for total in day_totals:
            batch_events.observe(float(total))
        if segments.campaign_events:
            counter("generate.campaign_events").inc(segments.campaign_events)
        if segments.partner_events:
            counter("generate.partner_events").inc(segments.partner_events)
        if not len(batch):
            return
        n_dp = int(np.count_nonzero(batch.is_direct_path))
        counter("generate.events", cls="DP").inc(n_dp)
        counter("generate.events", cls="RA").inc(len(batch) - n_dp)
        counter("generate.events.carpet").inc(int(np.count_nonzero(batch.carpet)))
        counter("generate.events.multi_vector").inc(
            int(np.count_nonzero(batch.secondary_vector_id >= 0))
        )

    # -- segment draws --------------------------------------------------------
    #
    # ``Generator.random`` spends one 64-bit word per double, in order, so
    # uniforms drawn back to back merge into one call (a ``(k, n)`` block
    # or one longer vector) without moving a single variate.  ``integers``
    # calls buffer 32-bit halves and ``lognormal`` consumes a variable
    # number of words, so no merge ever crosses one of them.

    def _draw_segment(
        self,
        rng: np.random.Generator,
        segments: _Segments,
        day: int,
        attack_class: AttackClass,
        count: int,
        campaign: Campaign | None,
    ) -> None:
        """Draw ``count`` events of one class (optionally one campaign)."""
        config = self.config
        if campaign is not None:
            segments.campaign_events += count

        targets, asns = self._draw_targets(rng, count, campaign)
        fractions = rng.random(count)
        fractions.sort()
        duration = rng.lognormal(*self._duration_params, size=count)
        pps = rng.lognormal(*self._pps_params[attack_class], size=count)

        sampler = self._class_sampler(attack_class, day)
        if campaign is not None and campaign.vector_focus is not None:
            vector = np.full(count, campaign.vector_focus, dtype=np.int16)
            multi = rng.random(count) < config.multi_vector_probability
        else:
            draws = rng.random((2, count))
            vector = sampler.pick(draws[0])
            multi = draws[1] < config.multi_vector_probability
        n_multi = int(np.count_nonzero(multi))

        if attack_class is AttackClass.REFLECTION_AMPLIFICATION:
            carpet_p = (
                config.carpet_campaign_probability
                if campaign is not None and campaign.carpet
                else config.carpet_probability
            )
        else:
            carpet_p = config.carpet_probability * 0.3
        draws = rng.random(n_multi + count)
        if n_multi:
            segments.secondaries.append(sampler.pick(draws[:n_multi]))
        carpet = draws[n_multi:] < carpet_p
        n_carpet = int(np.count_nonzero(carpet))
        if n_carpet:
            segments.carpet_lengths.append(rng.integers(22, 27, size=n_carpet))

        if attack_class is AttackClass.DIRECT_PATH:
            segments.spoofed_shares.append(self.landscape.spoofed_dp_share(day))
            segments.direct_draws.append(rng.random((2, count)))
        else:
            # Reflector-list breadth, shared across platforms per event:
            # broad lists hit every honeypot, narrow lists miss them all.
            # This correlation produces the >50% pairwise target overlap
            # between Hopscotch and AmpPot the paper reports (Section 7.1).
            segments.breadths.append(rng.lognormal(mean=-0.32, sigma=0.8, size=count))
            segments.reflection_draws.append(rng.random((4, count)))

        segments.counts.append(count)
        segments.days.append(day)
        segments.classes.append(int(attack_class))
        segments.partner.append(False)
        segments.bias_rows.append(
            _NEUTRAL_BIAS
            if campaign is None
            else tuple(campaign.bias[key] for key in OBSERVATORY_KEYS)
        )
        segments.targets.append(targets)
        segments.asns.append(asns)
        segments.fractions.append(fractions)
        segments.durations.append(duration)
        segments.pps.append(pps)
        segments.vectors.append(vector)
        segments.multi.append(multi)
        segments.carpets.append(carpet)

    def _class_sampler(self, attack_class: AttackClass, day: int) -> _ClassSampler:
        """The vector sampler for one class on one day.

        Without an emergence scenario this is the static per-class sampler
        (the exact object the baseline uses).  With one, reflection draws
        use a per-week sampler whose emerging-vector weight follows the
        scenario trajectory — keyed by week only, so any shard plan sees
        identical CDFs (calendar-prefix consistent by construction).
        """
        if (
            self._emergence is None
            or attack_class is not AttackClass.REFLECTION_AMPLIFICATION
        ):
            return self._samplers[attack_class]
        week = self.calendar.week_of_day(day)
        sampler = self._ra_weekly_samplers.get(week)
        if sampler is None:
            sampler = _ClassSampler.with_weight_override(
                VectorKind.REFLECTION,
                {
                    self._emergence.vector_catalogue_id: self._emergence.weight_for_week(
                        week
                    )
                },
            )
            self._ra_weekly_samplers[week] = sampler
        return sampler

    def _draw_targets(
        self, rng: np.random.Generator, count: int, campaign: Campaign | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Targets and origin ASNs for ``count`` events.

        One ``(4, n)`` block of uniforms picks the fresh plan targets (rows
        0-1) and decides recurrence (row 2) and campaign concentration
        (row 3).  Recurrence samples the pool as it stood when the segment
        started; the segment's own events are pushed afterwards in one
        batch.
        """
        draws = rng.random((4, count))
        targets, asns = self.plan.targets_from_uniforms(draws[:2])
        recur = draws[2] < self.config.recurrence_probability
        campaign_columns = self._campaign_prefix_columns(campaign)
        if campaign_columns is not None:
            concentrated = draws[3] < 0.7
            recur &= ~concentrated

        if len(self._pool):
            n_recur = int(np.count_nonzero(recur))
            if n_recur:
                pooled_targets, pooled_asns = self._pool.sample_many(rng, n_recur)
                targets[recur] = pooled_targets
                asns[recur] = pooled_asns

        if campaign_columns is not None:
            n = int(np.count_nonzero(concentrated))
            if n:
                bases, sizes = campaign_columns
                picks = rng.integers(len(bases), size=n)
                offsets = rng.integers(sizes[picks])
                targets[concentrated] = bases[picks] + offsets
                asns[concentrated] = campaign.target_asn

        self._pool.push_many(targets, asns)
        return targets, asns

    def _campaign_prefix_columns(
        self, campaign: Campaign | None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Columnar (base, size) prefixes of a campaign's target AS, memoised."""
        if campaign is None or campaign.target_asn is None:
            return None
        asn = campaign.target_asn
        if asn not in self._campaign_prefixes:
            info = self.plan.ases.get(asn)
            prefixes = info.prefixes if info is not None else ()
            columns = prefix_columns(prefixes) if prefixes else None
            self._campaign_prefixes[asn] = columns
        return self._campaign_prefixes[asn]

    # -- cross-type partners -----------------------------------------------------

    def _in_hosting(self, asns: np.ndarray) -> np.ndarray:
        """Boolean mask of ASNs that belong to hosting ASes."""
        hosting = self._hosting_asns
        if not len(hosting):
            return np.zeros(len(asns), dtype=bool)
        positions = np.searchsorted(hosting, asns)
        positions = np.minimum(positions, len(hosting) - 1)
        return hosting[positions] == asns

    def _draw_partners(
        self, rng: np.random.Generator, segments: _Segments, day: int, first: int
    ) -> None:
        """Spawn other-class partner events for multi-attack-type targets.

        The pairing probabilities of all the day's base segments (from
        ``first`` on) come from one vectorised pass; each segment then
        draws its own ``chosen`` uniforms, and its partners, in turn.
        """
        last = len(segments.counts)
        if last == first:
            return
        config = self.config
        counts = segments.counts[first:last]
        boost = np.where(
            self._in_hosting(np.concatenate(segments.asns[first:last])),
            config.cross_type_hosting_boost,
            1.0,
        )
        pps = np.concatenate(segments.pps[first:last])
        median_pps = np.repeat(
            [
                self._median_pps[AttackClass(attack_class)]
                for attack_class in segments.classes[first:last]
            ],
            counts,
        )
        size_boost = np.clip(np.sqrt(pps / median_pps), 1.0, config.cross_type_size_cap)
        probability = np.minimum(
            0.85, config.cross_type_probability * boost * size_boost
        )

        offset = 0
        for index in range(first, last):
            count = segments.counts[index]
            window = slice(offset, offset + count)
            offset += count
            chosen = np.flatnonzero(rng.random(count) < probability[window])
            if not len(chosen):
                continue
            flipped = AttackClass(1 - segments.classes[index])
            self._draw_segment(rng, segments, day, flipped, len(chosen), None)
            # Pin the partner onto the same victims (its sampled targets
            # already went to the recurrence pool), and correlate partner
            # size with the originating attack: multi-vector campaigns
            # against protected targets are big on every vector.
            segments.targets[-1] = segments.targets[index][chosen]
            segments.asns[-1] = segments.asns[index][chosen]
            segments.partner[-1] = True
            segments.scales.append(size_boost[window][chosen])
            segments.partner_events += len(chosen)

    # -- shard assembly ---------------------------------------------------------

    def _assemble(self, segments: _Segments) -> ShardBatch:
        """Concatenate the segments' draws and derive every other column.

        Per-segment constants (day, class, campaign bias) expand with
        ``np.repeat``; the arithmetic that needs no randomness runs once
        over the shard.
        """
        if not segments.counts:
            return ShardBatch(
                days=np.empty(0, dtype=np.int32),
                bias={key: np.empty(0) for key in OBSERVATORY_KEYS},
                **{name: np.empty(0, dtype=dtype) for name, dtype in EVENT_COLUMNS},
            )
        counts = np.asarray(segments.counts)
        n = int(counts.sum())
        classes = np.asarray(segments.classes, dtype=np.int8)
        days = np.repeat(np.asarray(segments.days, dtype=np.int32), counts)
        attack_class = np.repeat(classes, counts)
        direct = attack_class == int(AttackClass.DIRECT_PATH)
        reflection = ~direct

        start = np.repeat(
            np.asarray(segments.days, dtype=np.int64) * SECONDS_PER_DAY, counts
        ) + np.concatenate(segments.fractions) * SECONDS_PER_DAY
        duration = np.maximum(60.0, np.concatenate(segments.durations))
        scale = np.ones(n)
        if segments.scales:
            scale[np.repeat(segments.partner, counts)] = np.concatenate(
                segments.scales
            )
        vector = np.concatenate(segments.vectors)
        pps = np.concatenate(segments.pps)
        bps = pps * self._packet_size[vector] * 8.0 * scale
        pps *= scale

        secondary = np.full(n, -1, dtype=np.int16)
        if segments.secondaries:
            secondary[np.concatenate(segments.multi)] = np.concatenate(
                segments.secondaries
            )
        carpet = np.concatenate(segments.carpets)
        carpet_len = np.zeros(n, dtype=np.int8)
        if segments.carpet_lengths:
            carpet_len[carpet] = np.concatenate(segments.carpet_lengths)

        bias = {
            key: np.repeat(column, counts)
            for key, column in zip(
                OBSERVATORY_KEYS, np.asarray(segments.bias_rows).T
            )
        }
        spoofed = np.ones(n, dtype=bool)  # RA requests are spoofed
        hp_selected = np.zeros(n, dtype=np.uint8)
        avoidance = np.empty(n)
        if segments.direct_draws:
            draws = np.concatenate(segments.direct_draws, axis=1)
            shares = np.repeat(
                segments.spoofed_shares,
                counts[classes == int(AttackClass.DIRECT_PATH)],
            )
            spoofed[direct] = draws[0] < shares
            avoidance[direct] = draws[1]
        if segments.reflection_draws:
            draws = np.concatenate(segments.reflection_draws, axis=1)
            hp_selected[reflection] = self._hp_mask(
                vector[reflection],
                {platform: bias[platform][reflection] for platform in HP_BIT},
                np.concatenate(segments.breadths),
                draws,
            )
            avoidance[reflection] = draws[len(HP_BIT)]
        # Attackers that avoid telescopes are invisible to both of them.
        avoiders = avoidance < self.config.telescope_avoidance_probability
        for key in ("ucsd", "orion"):
            bias[key][avoiders] = 0.0

        return ShardBatch(
            days=days,
            bias=bias,
            attack_class=attack_class,
            target=np.concatenate(segments.targets),
            origin_asn=np.concatenate(segments.asns),
            start=start,
            duration=duration,
            pps=pps,
            bps=bps,
            vector_id=vector,
            secondary_vector_id=secondary,
            carpet=carpet,
            carpet_prefix_len=carpet_len,
            spoofed=spoofed,
            hp_selected=hp_selected,
        )

    def _hp_mask(
        self,
        vector: np.ndarray,
        campaign_bias: dict[str, np.ndarray],
        breadth: np.ndarray,
        draws: np.ndarray,
    ) -> np.ndarray:
        """Honeypot reflector-selection bitmask of reflection events.

        ``draws`` row ``i`` holds the selection uniforms of the ``i``-th
        platform of :data:`HP_BIT`.
        """
        mask = np.zeros(len(vector), dtype=np.uint8)
        for row, (platform, bit) in enumerate(HP_BIT.items()):
            probabilities = np.minimum(
                1.0,
                self._hp_probability_lut[platform][vector]
                * campaign_bias[platform]
                * breadth,
            )
            mask |= (draws[row] < probabilities).astype(np.uint8) << bit
        return mask
