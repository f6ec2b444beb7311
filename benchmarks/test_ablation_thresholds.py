"""Ablation — honeypot attack-definition thresholds.

The paper cites Nawrocki et al. [117]: different attack definitions across
honeypots change the inferred target set by 15-45%.  This ablation sweeps
the packet threshold of a Hopscotch-like platform and measures the target
count relative to the paper's 5-packet default.
"""

import dataclasses

from repro.observatories.base import Observations
from repro.observatories.honeypot import HOPSCOTCH_SPEC, HoneypotPlatform
from repro.sweep import ablation_substrate
from repro.util.parallel import generate_shard, models_for
from repro.util.rng import RngFactory

CONFIG = ablation_substrate(40.0, 40.0)


def run_with_threshold(min_packets: int, shard, plan) -> int:
    spec = dataclasses.replace(HOPSCOTCH_SPEC, min_packets=min_packets)
    honeypot = HoneypotPlatform(
        spec,
        rng=RngFactory(CONFIG.seed).stream(f"abl/{min_packets}"),
        rir=plan.rir,
    )
    observations = Observations(honeypot.name)
    honeypot.observe(shard, observations)
    return len(observations.target_keys())


def make_shard():
    return generate_shard(CONFIG), models_for(CONFIG).plan


def test_ablation_thresholds(benchmark, report):
    shard, plan = make_shard()
    baseline = run_with_threshold(5, shard, plan)
    benchmark.pedantic(
        run_with_threshold, args=(5, shard, plan), rounds=2, iterations=1
    )

    lines = [
        "Ablation - honeypot packet threshold vs inferred targets",
        "",
        f"{'threshold':>10s} {'targets':>9s} {'vs 5 pkts':>10s}",
    ]
    results = {}
    for threshold in (1, 5, 25, 100, 500, 2000):
        count = run_with_threshold(threshold, shard, plan)
        results[threshold] = count
        delta = (count - baseline) / baseline
        lines.append(f"{threshold:>10d} {count:>9d} {delta * 100:>+9.1f}%")
    lines.append("")
    lines.append("The paper (citing [117]) reports 15-45% target differences")
    lines.append("between honeypot attack definitions.")
    report("ABL_thresholds", "\n".join(lines))

    # Monotone: stricter thresholds see fewer targets.
    counts = [results[t] for t in sorted(results)]
    assert counts == sorted(counts, reverse=True)
    # The definitional gap between lenient and strict platforms lands in
    # the ballpark the paper cites (>= 15% between 5 and 2000 packets).
    gap = (results[5] - results[2000]) / results[5]
    assert gap > 0.15, gap
