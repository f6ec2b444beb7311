"""Ablation — cross-observatory mitigation interference (paper Section 5).

"An observed but quickly mitigated randomly-spoofed direct-path attack
might not reflect packets into a network telescope."  This ablation turns
the interference model on and measures how many telescope detections the
protection footprints erase.
"""

from repro.net.plan import UCSD_TELESCOPE_PREFIXES
from repro.observatories.base import Observations
from repro.observatories.mitigation import MitigationInterference
from repro.observatories.telescope import NetworkTelescope, TelescopeConfig
from repro.sweep import ablation_substrate
from repro.util.parallel import generate_shard, models_for
from repro.util.rng import RngFactory

CONFIG = ablation_substrate(60.0, 20.0)


def run_telescope(mitigation_probability: float) -> int:
    factory = RngFactory(CONFIG.seed)
    mitigation = None
    if mitigation_probability > 0:
        mitigation = MitigationInterference(
            models_for(CONFIG).plan,
            factory.stream("mitigation"),
            mitigation_probability=mitigation_probability,
        )
    telescope = NetworkTelescope(
        key="ucsd",
        name="UCSD",
        prefixes=UCSD_TELESCOPE_PREFIXES,
        rng=factory.stream("telescope"),
        config=TelescopeConfig(),
        mitigation=mitigation,
    )
    observations = Observations("UCSD")
    telescope.observe(generate_shard(CONFIG), observations)
    return len(observations)


def test_ablation_mitigation(benchmark, report):
    baseline = benchmark.pedantic(
        run_telescope, args=(0.0,), rounds=1, iterations=1
    )
    lines = [
        "Ablation - mitigation interference at the UCSD telescope",
        "",
        f"{'P(mitigate)':>12s} {'detections':>11s} {'vs baseline':>12s}",
    ]
    results = {0.0: baseline}
    for probability in (0.3, 0.7, 1.0):
        count = run_telescope(probability)
        results[probability] = count
        delta = (count - baseline) / baseline
        lines.append(f"{probability:>12.1f} {count:>11d} {delta * 100:>+11.1f}%")
    lines.append(f"{0.0:>12.1f} {baseline:>11d} {'baseline':>12s}")
    lines.append("")
    lines.append("Protected-target mitigation erases telescope evidence -")
    lines.append("partial observatory interference, as Section 5 cautions.")
    report("ABL_mitigation", "\n".join(lines))

    counts = [results[p] for p in (0.0, 0.3, 0.7, 1.0)]
    assert counts == sorted(counts, reverse=True)
    assert results[1.0] < baseline
