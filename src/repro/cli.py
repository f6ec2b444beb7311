"""Command-line interface: ``ddoscovery``.

Subcommands:

``ddoscovery run``
    Run the study and print (or save) paper artefacts.
``ddoscovery survey``
    Print the industry-report survey aggregates (Section 3 / Tables 1, 3).
``ddoscovery landscape``
    Print ground-truth landscape statistics (no observatories).
``ddoscovery sensitivity``
    Print telescope detection floors for a given prefix length.
``ddoscovery cache``
    Inspect or clear the on-disk simulation cache (``info`` lists the
    root, the entries and their total size).
``ddoscovery conformance``
    Evaluate the paper-conformance check registry and the golden
    fingerprints; ``--update-goldens`` refreshes the pins after an
    intentional model change.
``ddoscovery sweep``
    Declarative scenario ensembles (``repro.sweep``): ``run`` executes a
    named preset cell-by-cell with a resumable on-disk ledger, ``status``
    shows ledger progress, ``report`` renders the ensemble stability
    report, ``list`` names the presets (``--json`` for the canonical
    JSON form) — see ``docs/SWEEPS.md``.
``ddoscovery whatif``
    Paired counterfactual studies (``repro.counterfactual``): ``run``
    executes a baseline/counterfactual pairing under common random
    numbers through the sweep ledger and prints the per-observatory
    detection report (first-detection week, effect size, trend-symbol
    flips), ``report`` reduces an existing ledger without simulating,
    ``list`` names the intervention presets — see
    ``docs/COUNTERFACTUALS.md``.
``ddoscovery profile``
    Run the pipeline under the span tracer and print the hottest phases
    (sorted by self time).
``ddoscovery artifact``
    The artifact registry: ``list`` enumerates the registered artifacts
    (name, paper anchor, schema version), ``get NAME...`` emits their
    canonical versioned JSON documents — byte-identical to what the
    service daemon serves for the same configuration.
``ddoscovery serve``
    Run the study service daemon: a zero-dependency REST API
    (``POST /v1/jobs``, ``GET /v1/jobs/{id}/artifacts/{name}``, ...)
    over a bounded job queue with request coalescing, cooperative
    cancellation, and graceful SIGTERM drain.  Job bodies run on the
    persistent multi-process warm pool by default (``--execution
    process``) and artifact responses carry content-fingerprint ETags
    honoured by ``If-None-Match`` — see ``docs/SERVICE.md``.

``run``, ``landscape``, ``conformance``, ``profile``, ``artifact get``,
``sweep run``, ``whatif run``, ``serve``, and ``dist worker`` accept
``--trace OUT.json`` (write a run manifest: config fingerprint, schema
versions, host info, span tree, metrics) and ``--metrics`` (print the
merged metrics table to stderr) — see ``docs/OBSERVABILITY.md``.

Examples::

    ddoscovery run --weeks 80 --artefact F7 F5
    ddoscovery run --seed 3 --out results/ --jobs 4
    ddoscovery run --no-cache --artefact T1
    ddoscovery run --trace manifest.json --metrics --artefact T1
    ddoscovery survey
    ddoscovery sensitivity --prefix-length 20
    ddoscovery cache info
    ddoscovery cache clear
    ddoscovery conformance
    ddoscovery conformance --out benchmarks/results/CONFORMANCE.txt
    ddoscovery conformance --pinned seed0-small --update-goldens
    ddoscovery sweep run --preset seed-robustness --jobs 4 --resume
    ddoscovery sweep report --preset seed-robustness --out stability.txt
    ddoscovery sweep list --json
    ddoscovery whatif list
    ddoscovery whatif run --preset sav-adoption --jobs 4 --resume
    ddoscovery whatif report --preset sav-adoption --json
    ddoscovery profile --weeks 52 --top 15
    ddoscovery artifact list
    ddoscovery artifact get fig2_trends table2 --preset seed0-small
    ddoscovery serve --port 8350 --workers 2 --execution process
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import obs
from repro.core import report as report_module
from repro.core.study import Study, StudyConfig
from repro.util.calendar import StudyCalendar, calendar_for_weeks


# -- shared flag groups (argparse parent parsers) ------------------------------
#
# Every command that simulates takes the same execution flags; wiring
# them per-command drifted (three slightly different ``--jobs`` help
# strings before this), so each group is declared once and attached via
# ``parents=[...]``.  Factories return fresh parsers because argparse
# parents are consumed per ``add_parser`` call and defaults differ.


def _obs_parent() -> argparse.ArgumentParser:
    """``--trace`` / ``--metrics``: the observability flags."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="OUT.json",
        help="write a run manifest (span tree, metrics, config fingerprint, "
        "host info) as JSON",
    )
    parent.add_argument(
        "--metrics",
        action="store_true",
        help="print the merged pipeline metrics to stderr after the run",
    )
    return parent


def _jobs_parent(default: int, extra: str = "") -> argparse.ArgumentParser:
    """``--jobs``: simulation shard workers (0 = one per CPU)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs",
        type=int,
        default=default,
        help="simulation worker processes (0 = one per CPU; "
        f"default {default}){'; ' if extra else ''}{extra}",
    )
    return parent


def _cache_parent(
    *, no_cache: bool = True, cache_dir_help: str | None = None
) -> argparse.ArgumentParser:
    """``--no-cache`` / ``--cache-dir``: the study-cache flags."""
    parent = argparse.ArgumentParser(add_help=False)
    if no_cache:
        parent.add_argument(
            "--no-cache",
            action="store_true",
            help="bypass the on-disk simulation cache (read and write)",
        )
    parent.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=cache_dir_help
        or "cache location (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    return parent


def _execution_parent(
    jobs_default: int,
    *,
    jobs_extra: str = "",
    cache_dir_help: str | None = None,
) -> argparse.ArgumentParser:
    """The unified execution flag group every runner command shares.

    ``sweep run``, ``whatif run``, ``serve``, and ``dist worker`` all
    take the same five flags — ``--jobs``, ``--trace``, ``--metrics``,
    ``--no-cache``, ``--cache-dir`` — from this one parent (pinned by
    the flag-parity test in ``tests/test_cli_parents.py``), so an
    operator can move between batch, daemon, and distributed execution
    without relearning flags.  ``sweep run`` and ``whatif run`` fork no
    shard pool up front: the first cell that simulates warms it, after
    building its models, so the forked workers inherit them, and a run
    of ledger hits forks nothing.  ``dist worker`` and ``serve`` fork
    theirs at start-up, before they start any thread.
    """
    return argparse.ArgumentParser(
        add_help=False,
        parents=[
            _jobs_parent(jobs_default, jobs_extra),
            _cache_parent(cache_dir_help=cache_dir_help),
            _obs_parent(),
        ],
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddoscovery",
        description="Cross-observatory DDoS assessment toolkit (IMC'24 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run",
        help="run the study and print artefacts",
        parents=[_jobs_parent(1), _cache_parent(), _obs_parent()],
    )
    run.add_argument("--seed", type=int, default=0, help="study seed (default 0)")
    run.add_argument(
        "--weeks",
        type=int,
        default=None,
        help="shorten the window to N weeks from 2019-01-01 (default: full 234)",
    )
    run.add_argument(
        "--artefact",
        nargs="*",
        default=None,
        metavar="ID",
        help="artefact ids (T1..T4, F2..F14, S3); default: all",
    )
    run.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to write one text file per artefact",
    )
    run.add_argument(
        "--dp-per-day", type=float, default=90.0, help="direct-path base rate"
    )
    run.add_argument(
        "--ra-per-day", type=float, default=70.0, help="reflection base rate"
    )

    commands.add_parser("survey", help="industry-report survey (Section 3)")

    landscape = commands.add_parser(
        "landscape",
        help="ground-truth landscape statistics",
        parents=[_obs_parent()],
    )
    landscape.add_argument("--seed", type=int, default=0)
    landscape.add_argument("--weeks", type=int, default=26)

    sensitivity = commands.add_parser(
        "sensitivity", help="telescope detection floors"
    )
    sensitivity.add_argument(
        "--prefix-length", type=int, default=13, help="telescope prefix length"
    )

    cache = commands.add_parser(
        "cache",
        help="inspect or clear the on-disk simulation cache",
        parents=[_cache_parent(no_cache=False)],
    )
    cache.add_argument(
        "action",
        choices=("info", "clear"),
        help="'info' lists cache entries, 'clear' deletes them",
    )

    conformance = commands.add_parser(
        "conformance",
        help="evaluate paper-conformance checks and golden fingerprints",
        parents=[_jobs_parent(0), _cache_parent(), _obs_parent()],
    )
    conformance.add_argument(
        "--seed", type=int, default=0, help="study seed (default 0)"
    )
    conformance.add_argument(
        "--weeks",
        type=int,
        default=None,
        help="shorten the window to N weeks (default: full window; "
        "horizon-bound checks are skipped, not failed)",
    )
    conformance.add_argument(
        "--pinned",
        default=None,
        metavar="NAME",
        help="run a named pinned config (e.g. seed0-small) instead of "
        "--seed/--weeks",
    )
    conformance.add_argument(
        "--golden-dir",
        type=Path,
        default=None,
        help="golden directory (default $REPRO_GOLDEN_DIR or tests/goldens)",
    )
    conformance.add_argument(
        "--skip-goldens",
        action="store_true",
        help="evaluate checks only; skip the golden-fingerprint comparison",
    )
    conformance.add_argument(
        "--update-goldens",
        action="store_true",
        help="(re)write the golden fingerprints for this configuration",
    )
    conformance.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the report to a file "
        "(e.g. benchmarks/results/CONFORMANCE.txt)",
    )

    sweep = commands.add_parser(
        "sweep",
        help="run declarative scenario ensembles with a resumable ledger",
    )
    sweep_actions = sweep.add_subparsers(dest="action", required=True)

    _SWEEP_LEDGER_HELP = (
        "cache root; the sweep ledger lives under <root>/sweeps "
        "(default $REPRO_CACHE_DIR or ~/.cache/repro)"
    )

    def _sweep_preset_parent() -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(
            "--preset",
            required=True,
            metavar="NAME",
            help="named scenario preset (see 'ddoscovery sweep list')",
        )
        return parent

    def _sweep_parent() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(
            add_help=False,
            parents=[
                _cache_parent(
                    no_cache=False, cache_dir_help=_SWEEP_LEDGER_HELP
                ),
                _sweep_preset_parent(),
            ],
        )

    sweep_run = sweep_actions.add_parser(
        "run",
        help="execute (or resume) every cell of a sweep",
        parents=[
            _sweep_preset_parent(),
            _execution_parent(
                1,
                jobs_extra="per cell; cell results are identical for any value",
                cache_dir_help=_SWEEP_LEDGER_HELP,
            ),
        ],
    )
    sweep_run.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed cells from the run ledger (an interrupted "
        "sweep continues exactly where it stopped)",
    )

    sweep_actions.add_parser(
        "status",
        help="show per-cell ledger progress (never simulates)",
        parents=[_sweep_parent()],
    )

    sweep_report = sweep_actions.add_parser(
        "report",
        help="aggregate the ledger into the ensemble report",
        parents=[_sweep_parent()],
    )
    sweep_report.add_argument(
        "--allow-partial",
        action="store_true",
        help="render a report even when cells are still pending",
    )
    sweep_report.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the report to a file "
        "(e.g. benchmarks/results/SWEEP_seed_stability.txt)",
    )

    sweep_list = sweep_actions.add_parser("list", help="list the available presets")
    sweep_list.add_argument(
        "--json",
        action="store_true",
        help="emit the listing as canonical JSON (same encoder as "
        "'ddoscovery artifact get' and the service daemon)",
    )

    whatif = commands.add_parser(
        "whatif",
        help="paired counterfactual studies under common random numbers",
    )
    whatif_actions = whatif.add_subparsers(dest="action", required=True)

    _WHATIF_LEDGER_HELP = (
        "cache root; the pairing ledger lives under <root>/sweeps "
        "(default $REPRO_CACHE_DIR or ~/.cache/repro)"
    )

    def _whatif_preset_parent() -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(
            "--preset",
            required=True,
            metavar="NAME",
            help="named intervention preset (see 'ddoscovery whatif list')",
        )
        parent.add_argument(
            "--strength",
            type=float,
            default=1.0,
            help="intervention strength: 0 = identical legs, 1 = the full "
            "preset (default 1)",
        )
        return parent

    def _whatif_parent() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(
            add_help=False,
            parents=[
                _cache_parent(
                    no_cache=False, cache_dir_help=_WHATIF_LEDGER_HELP
                ),
                _whatif_preset_parent(),
            ],
        )

    whatif_run = whatif_actions.add_parser(
        "run",
        help="execute (or resume) both legs and print the detection report",
        parents=[
            _whatif_preset_parent(),
            _execution_parent(
                1,
                jobs_extra="per cell; results are identical for any value",
                cache_dir_help=_WHATIF_LEDGER_HELP,
            ),
        ],
    )
    whatif_run.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed cells from the pairing ledger (an interrupted "
        "run continues exactly where it stopped)",
    )
    whatif_run.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the detection report to a file "
        "(e.g. benchmarks/results/WHATIF_sav.txt)",
    )
    whatif_run.add_argument(
        "--json",
        action="store_true",
        help="print the canonical JSON detection document instead of the table",
    )

    whatif_report = whatif_actions.add_parser(
        "report",
        help="reduce the pairing ledger to the detection report "
        "(never simulates)",
        parents=[_whatif_parent()],
    )
    whatif_report.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the detection report to a file",
    )
    whatif_report.add_argument(
        "--json",
        action="store_true",
        help="print the canonical JSON detection document instead of the table",
    )

    whatif_list = whatif_actions.add_parser(
        "list", help="list the intervention presets"
    )
    whatif_list.add_argument(
        "--json",
        action="store_true",
        help="emit the listing as canonical JSON",
    )

    profile = commands.add_parser(
        "profile",
        help="run the pipeline under the tracer and print the hottest phases",
        parents=[
            _jobs_parent(1, "1 attributes self time in-process"),
            _cache_parent(no_cache=False),
            _obs_parent(),
        ],
    )
    profile.add_argument("--seed", type=int, default=0, help="study seed")
    profile.add_argument(
        "--weeks",
        type=int,
        default=None,
        help="shorten the window to N weeks (default: full 234)",
    )
    profile.add_argument(
        "--cached",
        action="store_true",
        help="allow the on-disk result cache (default: bypass it, so the "
        "simulation itself is measured)",
    )
    profile.add_argument(
        "--top", type=int, default=20, help="rows in the self-time table"
    )
    profile.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the profile report to a file "
        "(e.g. benchmarks/results/PROFILE_seed0.txt)",
    )

    artifact = commands.add_parser(
        "artifact",
        help="list registry entries or fetch canonical artifact JSON",
    )
    artifact_actions = artifact.add_subparsers(dest="action", required=True)
    artifact_actions.add_parser(
        "list", help="enumerate the artifact registry (name, anchor, schema)"
    )
    artifact_get = artifact_actions.add_parser(
        "get",
        help="run the study (cached) and emit canonical artifact JSON",
        parents=[_jobs_parent(1), _cache_parent(), _obs_parent()],
    )
    artifact_get.add_argument(
        "names",
        nargs="+",
        metavar="NAME",
        help="artifact names (see 'ddoscovery artifact list')",
    )
    artifact_get.add_argument(
        "--seed", type=int, default=0, help="study seed (default 0)"
    )
    artifact_get.add_argument(
        "--weeks",
        type=int,
        default=None,
        help="shorten the window to N weeks (default: full 234)",
    )
    artifact_get.add_argument(
        "--preset",
        default=None,
        metavar="NAME",
        help="use a pinned config (e.g. seed0-small) instead of --seed/--weeks",
    )
    artifact_get.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="write <name>.json per artifact instead of printing to stdout",
    )

    serve = commands.add_parser(
        "serve",
        help="run the study service daemon (REST job API)",
        parents=[
            _execution_parent(0, jobs_extra="shards per job, not concurrent jobs"),
        ],
    )
    serve.add_argument(
        "--execution",
        choices=("process", "thread"),
        default="process",
        help="where job bodies run: 'process' uses the persistent warm "
        "pool (default; crash- and GIL-isolated), 'thread' runs in-daemon",
    )
    serve.add_argument(
        "--role",
        choices=("standalone", "coordinator"),
        default="standalone",
        help="'standalone' serves jobs locally (default); 'coordinator' "
        "additionally leases the cells of sweep/whatif jobs to dist "
        "workers ('ddoscovery dist worker')",
    )
    serve.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="coordinator: evict workers silent this long and re-queue "
        "their leases; workers heartbeat every third of it (default 15)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8350,
        help="listen port (default 8350; 0 = ephemeral)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="concurrent jobs (default 1)",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=16,
        help="max queued+running jobs before submissions get 503 (default 16)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget (default: unbounded)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="grace period for running jobs on SIGTERM (default 30)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="close connections whose request has not fully arrived in "
        "this long (slow-loris guard; default 30)",
    )

    dist = commands.add_parser(
        "dist",
        help="distributed sweep execution: workers and coordinator status",
    )
    dist_actions = dist.add_subparsers(dest="action", required=True)
    dist_worker = dist_actions.add_parser(
        "worker",
        help="run one dist worker against a coordinator",
        parents=[
            _execution_parent(
                1,
                jobs_extra="per cell; cell results are identical for any "
                "value",
            ),
        ],
    )
    dist_worker.add_argument(
        "--coordinator",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (e.g. 127.0.0.1:8350)",
    )
    dist_worker.add_argument(
        "--worker-id",
        default=None,
        help="stable worker name (default: a random worker-XXXXXXXX)",
    )
    dist_worker.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="exit after completing this many cells (default: unbounded)",
    )
    dist_worker.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long with no lease granted "
        "(default: poll forever)",
    )
    dist_status = dist_actions.add_parser(
        "status",
        help="print a coordinator's workers, tasks, and leases",
    )
    dist_status.add_argument(
        "--coordinator",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (e.g. 127.0.0.1:8350)",
    )
    dist_status.add_argument(
        "--json",
        action="store_true",
        help="emit the status document as canonical JSON",
    )

    return parser


def _calendar_for(weeks: int | None) -> StudyCalendar:
    try:
        return calendar_for_weeks(weeks)
    except ValueError as error:
        raise SystemExit(str(error))


def _observed_command(
    args: argparse.Namespace, command: str, config, body, sweep: dict | None = None
) -> int:
    """Run ``body()`` in a fresh observability context; honour the shared
    ``--trace`` / ``--metrics`` flags.

    Every invocation collects into its own registry and tracer (so
    repeated ``main()`` calls in one process — the test suite — never
    bleed metrics into each other); the manifest is built from exactly
    what this command recorded.  ``sweep`` is the manifest's sweep
    provenance block, if the command runs a sweep.
    """
    trace_path = getattr(args, "trace", None)
    with obs.collecting() as registry, obs.tracing() as tracer:
        with obs.span(f"cli.{command}"):
            code = body()
        manifest = obs.build_manifest(
            command, config=config, registry=registry, tracer=tracer, sweep=sweep
        )
    if getattr(args, "metrics", False):
        print(obs.render_metrics(registry.summary()), file=sys.stderr)
    if trace_path is not None:
        obs.write_manifest(trace_path, manifest)
        print(f"wrote {trace_path}", file=sys.stderr)
    return code


def _command_run(args: argparse.Namespace) -> int:
    config = StudyConfig(
        seed=args.seed,
        calendar=_calendar_for(args.weeks),
        dp_per_day=args.dp_per_day,
        ra_per_day=args.ra_per_day,
    )

    def body() -> int:
        study = Study(
            config,
            jobs=args.jobs,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
        )
        print(
            f"simulating {study.calendar.start} .. {study.calendar.end} "
            f"(seed {config.seed}) ...",
            file=sys.stderr,
        )
        study.observations

        available = report_module.RENDERERS
        wanted = args.artefact or list(available)
        unknown = [key for key in wanted if key not in available]
        if unknown:
            raise SystemExit(
                f"unknown artefacts: {unknown}; available: {sorted(available)}"
            )
        with obs.span("cli.render"):
            for key in wanted:
                text = available[key](study)
                if args.out is not None:
                    args.out.mkdir(parents=True, exist_ok=True)
                    (args.out / f"{key}.txt").write_text(
                        text + "\n", encoding="utf-8"
                    )
                    print(f"wrote {args.out / f'{key}.txt'}", file=sys.stderr)
                else:
                    print("=" * 72)
                    print(text)
                    print()
        return 0

    return _observed_command(args, "run", config, body)


def _command_survey(_: argparse.Namespace) -> int:
    print(report_module.render_industry_survey())
    print()
    print(report_module.render_table3())
    return 0


def _command_landscape(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.attacks.vectors import VECTORS
    from repro.util.parallel import generate_shard, models_for

    config = StudyConfig(seed=args.seed, calendar=_calendar_for(args.weeks))

    def body() -> int:
        shard = generate_shard(config)
        total = len(shard)
        dp = int(shard.is_direct_path.sum())
        ra = int(shard.is_reflection.sum())
        carpet = int(shard.carpet.sum())
        multi = int((shard.secondary_vector_id >= 0).sum())
        # First-seen order breaks count ties, as most_common() sorts stably.
        vector_counts = Counter(VECTORS[i].name for i in shard.vector_id.tolist())

        print(f"ground truth over {config.calendar.n_weeks} weeks (seed {args.seed}):")
        print(f"  attacks           {total}")
        print(f"  direct-path       {dp} ({dp / total * 100:.1f}%)")
        print(f"  reflection-ampl.  {ra} ({ra / total * 100:.1f}%)")
        print(f"  carpet-bombing    {carpet} ({carpet / total * 100:.1f}%)")
        print(f"  multi-vector      {multi} ({multi / total * 100:.1f}%)")
        print(f"  campaigns         {len(models_for(config).campaigns)}")
        print("\nvector mix:")
        for name, count in vector_counts.most_common():
            print(f"  {name:12s} {count:7d} ({count / total * 100:5.1f}%)")
        return 0

    return _observed_command(args, "landscape", None, body)


def _command_sensitivity(args: argparse.Namespace) -> int:
    from repro.net.addr import Prefix
    from repro.observatories.telescope import NetworkTelescope
    from repro.util.rng import RngFactory

    length = args.prefix_length
    if not 0 <= length <= 32:
        raise SystemExit("prefix length must be 0..32")
    telescope = NetworkTelescope(
        key="ucsd",
        name=f"/{length}",
        prefixes=(Prefix(0, length),),
        rng=RngFactory(0).stream("cli"),
    )
    print(f"telescope /{length}: {telescope.size} addresses")
    print(f"  share of IPv4 space : {telescope.share:.8f}")
    print(f"  detection floor     : {telescope.detectable_rate_pps():.1f} pps")
    print(f"  detection floor     : {telescope.detectable_rate_mbps():.3f} Mbps "
          "(114-byte packets, 25 pkts / 300 s)")
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    from repro.core.cache import StudyCache

    cache = StudyCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
        return 0
    entries = cache.entries()
    print(f"cache root: {cache.root}")
    print(f"entries   : {len(entries)}")
    print(f"total size: {cache.total_bytes() / 1e6:.1f} MB")
    for path in entries:
        print(f"  {path.name}  ({path.stat().st_size / 1e6:.1f} MB)")
    return 0


def _command_conformance(args: argparse.Namespace) -> int:
    from repro.core.golden import (
        GoldenStore,
        golden_payload,
        pinned_configs,
        verify_study,
    )

    if args.pinned is not None:
        pinned = pinned_configs()
        if args.pinned not in pinned:
            raise SystemExit(
                f"unknown pinned config {args.pinned!r}; "
                f"available: {sorted(pinned)}"
            )
        config = pinned[args.pinned]
        golden_name = args.pinned
    else:
        config = StudyConfig(seed=args.seed, calendar=_calendar_for(args.weeks))
        golden_name = (
            f"seed{args.seed}-full"
            if args.weeks is None
            else f"seed{args.seed}-{args.weeks}w"
        )

    def body() -> int:
        study = Study(
            config,
            jobs=args.jobs,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
        )
        print(
            f"simulating {study.calendar.start} .. {study.calendar.end} "
            f"(seed {config.seed}) ...",
            file=sys.stderr,
        )

        report = study.conformance()
        sections = [report.render()]
        ok = report.ok

        if args.update_goldens:
            store = GoldenStore(args.golden_dir)
            path = store.save(golden_name, golden_payload(study, golden_name))
            sections.append(f"golden '{golden_name}': updated ({path})")
        elif not args.skip_goldens:
            comparison = verify_study(
                study, golden_name, GoldenStore(args.golden_dir)
            )
            sections.append(comparison.render())
            ok = ok and comparison.ok

        text = "\n\n".join(sections)
        print(text)
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(text + "\n", encoding="utf-8")
            print(f"wrote {args.out}", file=sys.stderr)
        return 0 if ok else 1

    return _observed_command(args, "conformance", config, body)


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import (
        SweepLedger,
        expand,
        load_report,
        preset,
        preset_names,
        run_sweep,
        sweep_provenance,
        sweep_status,
    )
    from repro.util.parallel import effective_jobs

    if args.action == "list":
        from repro.core.conformance import all_checks
        from repro.scenarios.checks import scenario_checks_for

        baseline = len(all_checks())
        listing = []
        for name in preset_names():
            spec = preset(name)
            cells = expand(spec)
            checks = baseline + len(
                scenario_checks_for(getattr(spec.base, "scenario", None))
            )
            listing.append(
                {
                    "name": name,
                    "n_cells": len(cells),
                    "n_checks": checks,
                    "anchor": spec.anchor,
                    "description": spec.description,
                }
            )
        if getattr(args, "json", False):
            from repro.core.artifacts import artifact_json_bytes
            from repro.sweep.spec import SWEEP_SCHEMA_VERSION

            sys.stdout.buffer.write(
                artifact_json_bytes(
                    {
                        "kind": "sweep-presets",
                        "schema_version": SWEEP_SCHEMA_VERSION,
                        "presets": listing,
                    }
                )
            )
            return 0
        for entry in listing:
            anchor = entry["anchor"] or "-"
            print(
                f"{entry['name']:24s} {entry['n_cells']:3d} cells  "
                f"{entry['n_checks']:2d} checks  "
                f"{anchor:16s} {entry['description']}"
            )
        return 0

    try:
        spec = preset(args.preset)
    except KeyError as error:
        raise SystemExit(str(error))
    ledger = SweepLedger(spec, root=args.cache_dir)

    if args.action == "status":
        status = sweep_status(ledger)
        print(f"sweep {status['sweep_id']}")
        print(f"  ledger {status['ledger_path']}")
        print(
            f"  cells  {len(status['done'])}/{status['n_cells']} done, "
            f"{len(status['pending'])} pending"
        )
        for cell in status["cells"]:
            labels = " ".join(f"{k}={v}" for k, v in cell["labels"].items())
            elapsed = (
                f"  ({cell['elapsed_s']:.1f}s)"
                if cell["elapsed_s"] is not None
                else ""
            )
            print(
                f"  [{cell['index']:3d}] {cell['status']:7s} "
                f"{labels or '(base)'}{elapsed}"
            )
        return 0

    if args.action == "report":
        report = load_report(ledger)
        if not report.complete and not args.allow_partial:
            raise SystemExit(
                f"sweep {report.sweep_id} has {len(report.cells)}/"
                f"{report.n_cells} cells; run 'ddoscovery sweep run "
                f"--preset {args.preset} --resume' or pass --allow-partial"
            )
        text = report.render()
        print(text)
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(text + "\n", encoding="utf-8")
            print(f"wrote {args.out}", file=sys.stderr)
        return 0

    # action == "run"
    workers = effective_jobs(args.jobs, None)

    def body() -> int:
        outcome = run_sweep(
            ledger,
            jobs=args.jobs,
            resume=args.resume,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
            log=lambda message: print(message, file=sys.stderr),
        )
        print(
            f"sweep {outcome.sweep_id}: "
            f"{len(outcome.executed)} cells simulated, "
            f"{len(outcome.ledger_hits)} ledger hits (jobs {workers})",
            file=sys.stderr,
        )
        print(outcome.report.render())
        return 0

    # The run-level manifest carries the sweep id with a null cell index;
    # per-cell manifests live under the ledger's cells/ directory.
    return _observed_command(
        args, "sweep", spec.base, body, sweep=sweep_provenance(ledger)
    )


def _command_whatif(args: argparse.Namespace) -> int:
    from repro.core.artifacts import artifact_json_bytes
    from repro.counterfactual import (
        WHATIF_PRESETS,
        build_detection_report,
        preset_names,
        run_whatif,
        whatif_preset,
    )
    from repro.sweep.ledger import SweepLedger
    from repro.sweep.scheduler import load_report, sweep_provenance
    from repro.sweep.spec import expand
    from repro.util.parallel import effective_jobs

    if args.action == "list":
        listing = []
        for name in preset_names():
            entry = WHATIF_PRESETS[name]()
            pairing = entry.pairing()
            listing.append(
                {
                    "name": name,
                    "title": entry.intervention.title,
                    "anchor": entry.intervention.anchor,
                    "description": entry.intervention.description,
                    "seeds": list(entry.seeds),
                    "n_cells": len(expand(pairing.spec())),
                    "n_ops": len(entry.intervention.ops),
                }
            )
        if getattr(args, "json", False):
            sys.stdout.buffer.write(
                artifact_json_bytes(
                    {"kind": "whatif-presets", "presets": listing}
                )
            )
            return 0
        for entry in listing:
            print(
                f"{entry['name']:24s} {entry['n_cells']:3d} cells  "
                f"{entry['n_ops']:2d} ops  seeds {entry['seeds']}  "
                f"{entry['anchor']:28s} {entry['title']}"
            )
        return 0

    try:
        pairing = whatif_preset(args.preset, args.strength)
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error))

    def emit_report(report) -> None:
        if getattr(args, "json", False):
            sys.stdout.buffer.write(artifact_json_bytes(report.to_document()))
        else:
            print(report.render())
        if getattr(args, "out", None) is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            if getattr(args, "json", False):
                args.out.write_bytes(
                    artifact_json_bytes(report.to_document())
                )
            else:
                args.out.write_text(report.render() + "\n", encoding="utf-8")
            print(f"wrote {args.out}", file=sys.stderr)

    if args.action == "report":
        ledger = SweepLedger(pairing.spec(), root=args.cache_dir)
        try:
            report = build_detection_report(pairing, load_report(ledger))
        except ValueError as error:
            raise SystemExit(str(error))
        emit_report(report)
        return 0

    # action == "run"
    workers = effective_jobs(args.jobs, None)
    # Same manifest convention as sweep run: the run-level manifest
    # carries the pairing's sweep id with a null cell index, taken from
    # the ledger run_whatif built once the body has run.
    provenance: dict = {}

    def body() -> int:
        outcome = run_whatif(
            pairing,
            jobs=args.jobs,
            resume=args.resume,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
            log=lambda message: print(message, file=sys.stderr),
        )
        provenance.update(sweep_provenance(outcome.sweep.ledger))
        print(
            f"whatif {outcome.sweep_id}: "
            f"{len(outcome.sweep.executed)} cells simulated, "
            f"{len(outcome.sweep.ledger_hits)} ledger hits (jobs {workers})",
            file=sys.stderr,
        )
        if outcome.report is None:
            print("stopped before any seed completed both legs", file=sys.stderr)
            return 1
        emit_report(outcome.report)
        return 0

    return _observed_command(args, "whatif", pairing.base, body, sweep=provenance)


def _command_profile(args: argparse.Namespace) -> int:
    config = StudyConfig(seed=args.seed, calendar=_calendar_for(args.weeks))
    trace_path = getattr(args, "trace", None)

    with obs.collecting() as registry, obs.tracing() as tracer:
        with obs.span("cli.profile"):
            study = Study(
                config,
                jobs=args.jobs,
                # Bypass the cache by default: a cache hit would profile
                # deserialization, not the pipeline.
                cache=args.cached,
                cache_dir=args.cache_dir,
            )
            print(
                f"profiling {study.calendar.start} .. {study.calendar.end} "
                f"(seed {config.seed}, jobs {args.jobs}) ...",
                file=sys.stderr,
            )
            study.observations
            study.main_series()
            study.artifact_result("table1")
            study.artifact_result("fig5_shares")
            study.artifact_result("fig6_correlation")
            study.artifact_result("fig7_upset")
        manifest = obs.build_manifest(
            "profile", config=config, registry=registry, tracer=tracer
        )

    lines = [
        f"profile: seed {config.seed}, "
        f"{study.calendar.start}..{study.calendar.end} "
        f"({study.calendar.n_weeks} weeks), jobs {args.jobs}, "
        f"cache {'on' if args.cached else 'off'}",
        "",
        obs.render_profile(tracer.root, top=args.top),
        "",
        obs.render_metrics(registry.summary()),
    ]
    text = "\n".join(lines)
    print(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    if trace_path is not None:
        obs.write_manifest(trace_path, manifest)
        print(f"wrote {trace_path}", file=sys.stderr)
    return 0


def _command_artifact(args: argparse.Namespace) -> int:
    from repro.core.artifacts import artifact_json_bytes, registry_listing
    from repro.core.export import write_artifacts_json
    from repro.core.golden import pinned_configs

    if args.action == "list":
        for entry in registry_listing():
            anchor = entry.get("paper_anchor") or "-"
            print(
                f"{entry['name']:20s} {anchor:14s} "
                f"v{entry['schema_version']}  {entry['title']}"
            )
        return 0

    # action == "get"
    if args.preset is not None:
        pinned = pinned_configs()
        if args.preset not in pinned:
            raise SystemExit(
                f"unknown pinned config {args.preset!r}; "
                f"available: {sorted(pinned)}"
            )
        config = pinned[args.preset]
    else:
        config = StudyConfig(seed=args.seed, calendar=_calendar_for(args.weeks))

    def body() -> int:
        study = Study(
            config,
            jobs=args.jobs,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
        )
        try:
            if args.out is not None:
                for path in write_artifacts_json(study, args.out, args.names):
                    print(f"wrote {path}", file=sys.stderr)
            else:
                for name in args.names:
                    sys.stdout.buffer.write(
                        artifact_json_bytes(study.artifact(name))
                    )
        except KeyError as error:
            raise SystemExit(str(error.args[0]))
        return 0

    return _observed_command(args, "artifact", config, body)


def _run_dist_worker(args: argparse.Namespace) -> int:
    """Body of ``dist worker``."""
    from repro.service import ProtocolError, WorkerConfig, run_worker

    config = WorkerConfig(
        coordinator=args.coordinator,
        worker_id=args.worker_id,
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        max_cells=args.max_cells,
        idle_exit_s=args.idle_exit,
    )

    def body() -> int:
        from repro.util.parallel import effective_jobs, warm_pool

        # Fork the shard pool now, before the keepalive thread starts:
        # forking later, from a process with threads, is what warm_pool
        # exists to avoid.
        resolved = effective_jobs(args.jobs)
        if resolved > 1:
            warm_pool(resolved)
        try:
            summary = run_worker(
                config,
                log=lambda message: print(
                    message, file=sys.stderr, flush=True
                ),
                install_signal_handlers=True,
            )
        except ProtocolError as error:
            document = {"status": error.status, **error.document()}
            raise SystemExit(f"registration rejected: {error} {document}")
        except ConnectionError as error:
            raise SystemExit(str(error))
        return 0 if summary.failed == 0 else 1

    return _observed_command(args, "dist", None, body)


def _command_dist(args: argparse.Namespace) -> int:
    if args.action == "worker":
        return _run_dist_worker(args)

    # action == "status"
    from repro.core.artifacts import artifact_json_bytes
    from repro.service import CoordinatorClient, ProtocolError

    client = CoordinatorClient(args.coordinator, retries=1)
    try:
        status = client.get("/v1/dist/status")
    except (ProtocolError, ConnectionError) as error:
        raise SystemExit(str(error))
    if args.json:
        sys.stdout.buffer.write(artifact_json_bytes(status))
        return 0
    print(
        f"coordinator {args.coordinator}: protocol {status['protocol']}, "
        f"{'draining' if status['draining'] else 'serving'}, "
        f"{status['leases']} leases in flight"
    )
    for worker in status["workers"]:
        print(
            f"  worker {worker['worker_id']}: "
            f"{worker['completed']} cells, "
            f"{worker['heartbeats']} heartbeats"
        )
    for task in status["tasks"]:
        print(
            f"  task {task['task_id']}: {task['n_done']}/{task['n_cells']} "
            f"done, {task['n_pending']} pending, {task['n_leased']} leased"
        )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, run_service

    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    if args.queue_size < 1:
        raise SystemExit("--queue-size must be at least 1")
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        job_timeout_s=args.job_timeout,
        drain_timeout_s=args.drain_timeout,
        execution=args.execution,
        request_timeout_s=args.request_timeout,
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        role=args.role,
        heartbeat_timeout_s=args.heartbeat_timeout,
    )

    def body() -> int:
        return run_service(
            config,
            log=lambda message: print(message, file=sys.stderr, flush=True),
        )

    return _observed_command(args, "serve", None, body)


_COMMANDS = {
    "run": _command_run,
    "survey": _command_survey,
    "landscape": _command_landscape,
    "sensitivity": _command_sensitivity,
    "cache": _command_cache,
    "conformance": _command_conformance,
    "sweep": _command_sweep,
    "whatif": _command_whatif,
    "profile": _command_profile,
    "artifact": _command_artifact,
    "serve": _command_serve,
    "dist": _command_dist,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
