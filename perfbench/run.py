"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload study|whatif|service|all \\
        --seed 0 --seconds 30 --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it replays the workload's study
layer by layer (:mod:`perfbench.replay`), then alternates untraced and
traced units of the workload to measure the tracing overhead and the
layers only that workload reaches.  Progress and every named figure go
to standard output; its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result (with
provenance) and, for traced runs, every span are written under
``.perfbench/out/``; scratch files live under ``.perfbench/work/`` and are
removed at exit.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("study", "whatif", "service")
#: Share of a traced run spent on layer replays; the rest alternates
#: untraced and traced units.
REPLAY_SHARE = 0.4
#: Set-ups per run for workloads whose set-up is the process's own.
SETUPS = 3


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print the set-up time and exit",
    )
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, jobs: int, work: Path, run):
    if name == "study":
        from perfbench.study_workload import StudyWorkload as factory
    elif name == "whatif":
        from perfbench.whatif_workload import WhatifWorkload as factory
    else:
        from perfbench.service_workload import ServiceWorkload as factory
    return factory(seed, jobs, work, run)


def setup_samples(workload, args, first: float) -> list[float]:
    """The run's set-up times: a workload that starts its own server
    reports them; otherwise this process's plus fresh-process repeats."""
    own = getattr(workload, "setups", None)
    if own is not None:
        return own
    samples = [first]
    for _ in range(SETUPS - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def traced(workload, jobs: int, seconds: float, work: Path, run, out: Path) -> None:
    from perfbench.common import Deadline, median
    from perfbench.replay import layer_metrics, replay
    from perfbench.spans import Tracer
    from repro.util.parallel import models_for, warm_pool

    models_for(workload.replay_config)
    warm_pool(jobs)
    tracer = Tracer()
    replays = []
    phase = Deadline(seconds * REPLAY_SHARE)
    while phase.more():
        started = time.perf_counter()
        tracer.operation()
        directory = work / f"replay-{len(replays)}"
        replays.append(replay(workload.replay_config, jobs, directory, tracer, run))
        shutil.rmtree(directory, ignore_errors=True)
        phase.done(time.perf_counter() - started)
    counts = replays[0]["counts"]
    run.check(
        all(r["counts"] == counts for r in replays),
        "replay: work counts differ between replays of one config",
    )
    times = {key: median([r["times"][key] for r in replays]) for key in replays[0]["times"]}
    for name, (value, unit) in layer_metrics(times, counts, jobs).items():
        run.metric(name, value, unit)
    run.note("replays", len(replays), "count")

    plain, spanned = [], []
    pairs = Deadline(max(0.0, phase.end + seconds * (1 - REPLAY_SHARE) - time.perf_counter()))
    while pairs.more():
        started = time.perf_counter()
        plain.append(workload.unit(None))
        tracer.operation()
        spanned.append(workload.unit(tracer))
        pairs.done(time.perf_counter() - started)
    run.metric("trace.overhead_share", median(spanned) / median(plain) - 1, "ratio")
    run.note("trace.pairs", len(plain), "count")
    workload.layer_notes(tracer)
    tracer.dump(out / f"trace-{run.workload}-seed{run.seed}.json", {"workload": run.workload, "seed": run.seed})


def report(run, setup: list[float], out: Path) -> dict:
    from perfbench.common import provenance

    meta = provenance(run)
    print(f"# {run.workload} seed={run.seed} trace={int(run.trace)} nproc={meta['nproc']} "
          f"python={meta['python']} numpy={meta['numpy']} "
          f"git={meta['git_sha'] or '-'} src={meta['source_sha256'][:12]}")
    print(f"# params {json.dumps(run.params, sort_keys=True)}")
    lines = [(name, value, unit, None) for name, (value, unit) in run.metrics.items()]
    lines += [(name, *note) for name, note in run.notes.items()]
    for name, value, unit, samples in lines:
        if value is None:
            shown = "n/a"
        elif unit in ("count", "bytes"):
            shown = f"{value:.0f}"
        else:
            shown = f"{value:.6g}"
        count = "" if samples is None else f"  (n={samples})"
        print(f"{run.workload:8s} {name:34s} {shown:>14s} {unit}{count}")
    print(f"{run.workload:8s} set-up samples {', '.join(f'{s:.3f}' for s in setup)} s")
    print(f"{run.workload:8s} operations attempted {run.attempted}, failed {run.failed}")
    for failure in run.failures:
        print(f"{run.workload:8s} FAILED: {failure}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in run.metrics.items()
        },
    }
    full = dict(result, provenance=meta, setup_samples_s=setup, failures=run.failures,
                notes={name: {"value": v, "unit": u, "samples": n}
                       for name, (v, u, n) in run.notes.items()})
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-{run.workload}-seed{run.seed}-trace{int(run.trace)}.json").write_text(
        json.dumps(full, indent=2) + "\n"
    )
    return result


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; the last line sums their counts."""
    results = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            return out.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT} holds no src/repro to measure", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import Run, host_cores

    label = "setup" if args.setup_only else f"trace{args.trace}"
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{label}-{os.getpid()}"
    out = ROOT / ".perfbench" / "out"
    # Every file the program or the benchmark writes stays in the checkout:
    # the cache root also holds the shard transport directories.
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache-root")
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None

    run = Run(args.workload, args.seed, bool(args.trace))
    jobs = host_cores()
    workload = None
    try:
        workload = make_workload(args.workload, args.seed, jobs, work, run)
        workload.setup()
        first = time.perf_counter() - _STARTED
        if args.setup_only:
            print(f"{first:.6f}")
            return 0
        run.params = workload.params()
        print(f"perfbench: {args.workload} set up in {first:.2f}s; "
              f"measuring {args.seconds:g}s", flush=True)
        if args.trace:
            traced(workload, jobs, args.seconds, work, run, out)
            setup = [first]
        else:
            from perfbench.common import median, steal_s

            stolen, started = steal_s(), time.perf_counter()
            workload.measure(args.seconds)
            elapsed = time.perf_counter() - started
            run.note("host.steal_share", (steal_s() - stolen) / (jobs * elapsed), "share")
            run.metric("peak_rss_mb", workload.peak_rss_mb(), "MB")
            setup = setup_samples(workload, args, first)
            run.metric("setup_s", median(setup), "s")
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)
    result = report(run, setup, out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
