"""Ablation — telescope size vs detection floor (paper Section 5).

The paper derives detection floors from telescope size: UCSD-NT (/9+/10)
detects 0.026 Mbps attacks, ORION (/13) 0.60 Mbps, and a hypothetical /20
about 70 Mbps.  This ablation sweeps telescope sizes against one attack
population and reports the observed-target share.
"""

import numpy as np

from repro.attacks.events import OBSERVATORY_KEYS, ShardBatch
from repro.net.addr import Prefix
from repro.observatories.telescope import NetworkTelescope, TelescopeConfig
from repro.util.rng import RngFactory


def attack_population(n=4000, seed=0):
    rng = RngFactory(seed).stream("abl-size")
    pps = rng.lognormal(np.log(40_000), 2.2, size=n)
    return ShardBatch(
        days=np.zeros(n, dtype=np.int32),
        attack_class=np.zeros(n, dtype=np.int8),
        target=np.arange(n, dtype=np.int64) + 1_000_000,
        origin_asn=np.full(n, 64500, dtype=np.int64),
        start=np.zeros(n),
        duration=np.full(n, 600.0),
        pps=pps,
        bps=pps * 512 * 8,
        vector_id=np.full(n, 10, dtype=np.int16),
        secondary_vector_id=np.full(n, -1, dtype=np.int16),
        carpet=np.zeros(n, dtype=bool),
        carpet_prefix_len=np.zeros(n, dtype=np.int8),
        spoofed=np.ones(n, dtype=bool),
        hp_selected=np.zeros(n, dtype=np.uint8),
        bias={key: np.ones(n) for key in OBSERVATORY_KEYS},
    )


def observe_with_size(prefix_length: int, batch) -> tuple[float, float]:
    telescope = NetworkTelescope(
        key="ucsd",
        name=f"/{prefix_length}",
        prefixes=(Prefix(0, prefix_length),),
        rng=RngFactory(1).stream(f"abl/{prefix_length}"),
        config=TelescopeConfig(response_ratio=1.0),
    )
    observations = telescope.observe(batch)
    return len(observations) / len(batch), telescope.detectable_rate_mbps()


def test_ablation_telescope_size(benchmark, report):
    batch = attack_population()
    benchmark.pedantic(
        observe_with_size, args=(9, batch), rounds=3, iterations=1
    )

    lines = [
        "Ablation - telescope size vs detection",
        "",
        f"{'prefix':>7s} {'floor Mbps':>11s} {'seen share':>11s}",
    ]
    shares = {}
    for length in (9, 13, 16, 20, 24):
        share, floor = observe_with_size(length, batch)
        shares[length] = share
        lines.append(f"/{length:<6d} {floor:>11.3f} {share * 100:>10.1f}%")
    lines.append("")
    lines.append("Paper Section 5: /9+/10 -> 0.026 Mbps, /13 -> 0.60 Mbps,")
    lines.append("/20 -> ~70 Mbps in 5 minutes.")
    report("ABL_telescope_size", "\n".join(lines))

    # Bigger telescopes see strictly more of the same attack population.
    ordered = [shares[length] for length in (9, 13, 16, 20, 24)]
    assert ordered == sorted(ordered, reverse=True)
    assert shares[9] > shares[20]
