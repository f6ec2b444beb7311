"""Replay one study layer by layer, timing each layer from outside.

The traced run of every workload replays the study behind its config
in-process, one layer at a time, so each public call into a layer can be
timed on its own:

1. ``parallel.models``: ``build_models`` (the substrate ``models_for``
   memoises);
2. per shard, serially: ``run_shard`` with ``GroundTruthGenerator.
   shard_batch`` timed as ``attacks.generate`` and every platform's
   ``Observatory.observe`` as ``observatories.<platform>``; the shard's
   result then goes through ``write_shard``/``read_shard``
   (``shardio.write``/``shardio.read``) exactly as a pool worker ships it;
3. ``merge_shard_results`` over the read-back shards (``parallel.merge``);
4. ``simulate(jobs=N)``, the one parallel call (``parallel.simulate``),
   whose output must equal the serial replay's;
5. ``StudyCache.store`` (``cache.store``), then ``Study.observations``
   on a fresh study over that cache (``cache.load``, must be a hit);
6. ``Study.academic_target_sets``, every registered artifact as canonical
   bytes in registry order, then ``Study.conformance()`` (``analysis.*``).

Work counts come from the program's own ``repro.obs`` counters and from
file sizes; they must repeat exactly between runs at one seed.
"""

from __future__ import annotations

import time
from pathlib import Path

from perfbench.common import Run
from perfbench.spans import Tracer, replaced, timed, wrapped

#: The eight observing platforms, in ``ObservatorySet.all()`` order.
PLATFORMS = (
    "UCSD",
    "ORION",
    "Hopscotch",
    "AmpPot",
    "NewKid",
    "Netscout",
    "Akamai",
    "IXP",
)


def _counter(snapshot: dict, key: str) -> int:
    return int(snapshot["counters"].get(key, 0))


def _same_observations(a, b) -> bool:
    import numpy as np

    from repro.core.io import pack_observations

    sinks_a, truth_a = a
    sinks_b, truth_b = b
    packed_a, packed_b = pack_observations(sinks_a), pack_observations(sinks_b)
    if packed_a.keys() != packed_b.keys() or truth_a.keys() != truth_b.keys():
        return False
    return all(
        np.array_equal(packed_a[key], packed_b[key]) for key in packed_a
    ) and all(np.array_equal(truth_a[key], truth_b[key]) for key in truth_a)


def replay(config, jobs: int, work: Path, tracer: Tracer, run: Run) -> dict:
    """Replay one study; returns ``{"times": ..., "counts": ...}``.

    ``times`` holds seconds per layer (plus ``replay.wall`` and
    ``replay.unattributed``, the part of the wall time no layer span
    covers); ``counts`` the exact work counts.
    """
    import repro.util.parallel as parallel
    from repro.attacks.generator import GroundTruthGenerator
    from repro.core.artifacts import artifact_json_bytes, artifact_names
    from repro.core.cache import StudyCache, config_fingerprint
    from repro.core.shardio import read_shard, write_shard
    from repro.core.study import Study
    from repro.obs import collecting, tracing

    work.mkdir(parents=True, exist_ok=True)
    first_span = len(tracer.spans)
    counts: dict[str, int] = {"shardio.bytes": 0}
    build_observatories = parallel.build_observatories

    def observed(*args, **kwargs):
        observatories = build_observatories(*args, **kwargs)
        for observatory in observatories.all():
            observatory.observe = timed(
                tracer, f"observatories.{observatory.name}", observatory.observe
            )
        return observatories

    started = time.perf_counter()
    with tracer.span("replay"):
        with tracer.span("parallel.models"):
            parallel.build_models(config)

        read_back = []
        serial_counts: dict[str, int] = {}
        with wrapped(tracer, GroundTruthGenerator, "shard_batch", "attacks.generate"), replaced(
            parallel, "build_observatories", observed
        ):
            for start, stop in parallel.plan_shards(config.calendar.n_days):
                # A fresh collection context per shard, as a pool worker has:
                # its snapshot and span tree travel in the shard file.
                with collecting() as registry, tracing() as program_spans:
                    sinks, truth = parallel.run_shard(config, start, stop)
                snapshot = registry.snapshot()
                for key, value in snapshot["counters"].items():
                    serial_counts[key] = serial_counts.get(key, 0) + int(value)
                path = work / f"shard-{start:05d}-{stop:05d}.shard"
                with tracer.span("shardio.write"):
                    write_shard(path, sinks, truth, snapshot, program_spans.tree())
                counts["shardio.bytes"] += path.stat().st_size
                with tracer.span("shardio.read"):
                    payload = read_shard(path)
                path.unlink()
                read_back.append(payload[0])

        with tracer.span("parallel.merge"):
            merged = parallel.merge_shard_results(read_back)
        with collecting() as registry:
            with tracer.span("parallel.simulate"):
                simulated = parallel.simulate(config, jobs=jobs)
            parallel_snapshot = registry.snapshot()
        run.check(
            _same_observations(merged, simulated),
            "replay: serial shard replay differs from simulate()",
        )

        cache_dir = work / "cache"
        fingerprint = config_fingerprint(config)
        with tracer.span("cache.store"):
            stored = StudyCache(cache_dir).store(fingerprint, *simulated)
        counts["cache.bytes"] = stored.stat().st_size if stored else 0
        study = Study(config, jobs=jobs, cache_dir=str(cache_dir))
        with collecting() as registry:
            with tracer.span("cache.load"):
                study.observations
            hits = _counter(registry.snapshot(), "cache.hits")
        run.check(hits == 1, "replay: the stored study did not load as a cache hit")

        with tracer.span("analysis.target_sets"):
            study.academic_target_sets
        for name in artifact_names():
            with tracer.span(f"analysis.{name}"):
                artifact_json_bytes(study.artifact(name))
        with tracer.span("analysis.conformance"):
            study.conformance()
    wall = time.perf_counter() - started

    counts["attacks.events"] = serial_counts.get(
        "generate.events{cls=DP}", 0
    ) + serial_counts.get("generate.events{cls=RA}", 0)
    for name in PLATFORMS:
        counts[f"observatories.records.{name}"] = serial_counts.get(
            f"observe.records{{platform={name}}}", 0
        )
    counts["parallel.shards"] = int(
        parallel_snapshot["gauges"].get("simulate.shards") or 0
    )
    run.check(
        all(
            _counter(parallel_snapshot, key) == value
            for key, value in serial_counts.items()
            if key.startswith(("generate.events", "observe.records"))
        ),
        "replay: simulate() counted different events or records than the replay",
    )

    times: dict[str, float] = {}
    for span in tracer.spans[first_span:]:
        if span["name"] != "replay":
            times[span["name"]] = times.get(span["name"], 0.0) + (
                span["end"] - span["start"]
            )
    times["observatories.observe"] = sum(
        times.get(f"observatories.{name}", 0.0) for name in PLATFORMS
    )
    layered = sum(
        value
        for key, value in times.items()
        if not key.startswith("observatories.")
    ) + times["observatories.observe"]
    times["replay.wall"] = wall
    times["replay.unattributed"] = wall - layered
    return {"times": times, "counts": counts}


def layer_metrics(times: dict, counts: dict, jobs: int) -> dict[str, tuple[float, str]]:
    """The JSON-line per-layer metrics of one replay (or of medians)."""
    from repro.core.artifacts import artifact_names

    out: dict[str, tuple[float, str]] = {}

    def seconds(metric: str, key: str) -> None:
        out[metric] = (times[key], "s")

    seconds("attacks.generate_s", "attacks.generate")
    out["attacks.events"] = (counts["attacks.events"], "count")
    seconds("observatories.observe_s", "observatories.observe")
    for name in PLATFORMS:
        seconds(f"observatories.{name}_s", f"observatories.{name}")
    for name in PLATFORMS:
        key = f"observatories.records.{name}"
        out[key] = (counts[key], "count")
    seconds("parallel.models_s", "parallel.models")
    seconds("parallel.simulate_s", "parallel.simulate")
    workers = min(jobs, counts["parallel.shards"])
    serial = times["attacks.generate"] + times["observatories.observe"]
    out["parallel.efficiency"] = (
        serial / (workers * times["parallel.simulate"]),
        "ratio",
    )
    seconds("parallel.merge_s", "parallel.merge")
    out["parallel.shards"] = (counts["parallel.shards"], "count")
    seconds("shardio.write_s", "shardio.write")
    seconds("shardio.read_s", "shardio.read")
    out["shardio.bytes"] = (counts["shardio.bytes"], "bytes")
    seconds("cache.store_s", "cache.store")
    seconds("cache.load_s", "cache.load")
    out["cache.bytes"] = (counts["cache.bytes"], "bytes")
    seconds("analysis.target_sets_s", "analysis.target_sets")
    for name in artifact_names():
        seconds(f"analysis.{name}_s", f"analysis.{name}")
    seconds("analysis.conformance_s", "analysis.conformance")
    seconds("replay.wall_s", "replay.wall")
    seconds("replay.unattributed_s", "replay.unattributed")
    return out
