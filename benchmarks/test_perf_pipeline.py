"""Performance — end-to-end pipeline throughput.

Not a paper artefact: tracks the simulator's own cost so regressions in
the hot paths (generation, vectorised observatory masks, LPM lookups)
are visible in benchmark history.
"""

import datetime as dt

from repro.attacks.campaigns import CampaignModel
from repro.attacks.generator import GroundTruthGenerator
from repro.attacks.landscape import LandscapeModel
from repro.core.study import StudyConfig
from repro.net.plan import PlanConfig, build_internet_plan
from repro.observatories.registry import build_observatories
from repro.util.calendar import StudyCalendar
from repro.util.rng import RngFactory

CALENDAR = StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 6, 30))


def build_pipeline():
    plan = build_internet_plan(PlanConfig(seed=0, tail_as_count=120))
    factory = RngFactory(0)
    landscape = LandscapeModel(CALENDAR, dp_per_day=80.0, ra_per_day=60.0)
    campaigns = CampaignModel(
        CALENDAR,
        factory,
        candidate_asns=[i.asn for i in plan.ases if i.target_weight > 0],
    )
    generator = GroundTruthGenerator(
        plan, CALENDAR, landscape, campaigns, rng_factory=factory
    )
    observatories = build_observatories(StudyConfig(calendar=CALENDAR), plan)
    return generator, observatories


def run_pipeline():
    generator, observatories = build_pipeline()
    sinks, _ = observatories.run_shard(generator.shard_batch(), CALENDAR)
    return sum(len(obs) for obs in sinks.values())


def test_perf_generation(benchmark, report):
    def generate():
        generator, _ = build_pipeline()
        return len(generator.shard_batch())

    events = benchmark.pedantic(generate, rounds=3, iterations=1)
    per_second = events / benchmark.stats.stats.mean
    report(
        "PERF_generation",
        "Pipeline performance - ground-truth generation\n\n"
        f"{events} events over {CALENDAR.n_weeks} weeks\n"
        f"throughput: {per_second / 1000:.0f}k events/s",
    )
    assert events > 5_000


def test_perf_full_pipeline(benchmark, report):
    records = benchmark.pedantic(run_pipeline, rounds=3, iterations=1)
    seconds = benchmark.stats.stats.mean
    report(
        "PERF_pipeline",
        "Pipeline performance - generation + ten observatories\n\n"
        f"{records} observed records in {seconds:.2f}s per run\n"
        f"(half-year window; the full 4.5-year study scales linearly)",
    )
    assert records > 5_000
