"""Sharded, process-parallel simulation executor.

The study calendar is split into contiguous day-range shards; each shard
builds its own ground-truth generator and observatory set and simulates its
range independently.  Three properties make the result exactly equal for
*any* worker count:

* the shard plan depends only on the calendar — never on ``jobs`` — so
  serial and parallel runs execute identical shard units;
* every study day draws from a day-keyed RNG stream (see
  :class:`~repro.attacks.generator.GroundTruthGenerator`), and each shard
  gets fresh observatory instances whose weekly noise streams are
  re-derived from the study seed;
* per-shard sinks are merged in shard order with
  :meth:`~repro.observatories.base.Observations.merge`.

``simulate()`` is the single entry point: :class:`~repro.core.study.Study`
routes through it (with the on-disk cache of :mod:`repro.core.cache` in
front), and the CLI exposes it via ``--jobs``.

This module is the only code that turns a study config into simulation
inputs: :func:`models_for` (plan, landscape, campaigns),
:func:`~repro.observatories.registry.build_observatories` and
:func:`generate_shard` (the ground-truth batch).  The substrate is
deterministic and read-only, so each process keeps the most recently used
ones in a small memo; on platforms with ``fork`` the parent warms the memo
before spawning workers and children inherit it for free.  The worker
pool itself is persistent (see :func:`warm_pool`): repeated parallel runs
in one process — and every job handled by ``ddoscovery serve`` — reuse
already-forked workers instead of paying process startup per call.

Each shard also runs inside its own observability collection context
(:mod:`repro.obs`): the worker ships a metrics snapshot and span tree
alongside the simulation result, and the parent merges the payloads in
shard order — so ``--jobs N`` reports identical aggregate counters for
any ``N``.

Shard results travel home as zero-copy transport files, not pickles:
each worker writes a columnar ``.shard`` file (:mod:`repro.core.shardio`)
into a per-run directory in the system temp dir and returns only its
path; the collector memory-maps the files and merges numpy views
directly.  The run directory is removed in a ``finally`` block, so a
crashed worker can never leave orphaned shard files behind.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.util
import os
import shutil
import tempfile
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.attacks.booters import BooterMarket
from repro.attacks.campaigns import CampaignModel
from repro.attacks.events import AttackClass, ShardBatch
from repro.attacks.generator import GroundTruthGenerator
from repro.attacks.landscape import LandscapeModel
from repro.net.plan import InternetPlan, PlanConfig, build_internet_plan
from repro.obs import absorb, collecting, gauge, span, tracing
from repro.observatories.base import Observations
from repro.observatories.registry import build_observatories
from repro.util.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (study -> parallel)
    from repro.core.study import StudyConfig

#: Shard width in days.  Fixed (never derived from ``jobs``) so the shard
#: plan — and with it the simulation output — is identical for any worker
#: count.  It is not a setting either: each shard starts an empty
#: recurrence pool, so another width changes the bytes, and the study
#: cache key does not include it.  Four weeks keeps >50 shards on the full
#: 4.5-year window while leaving the pool plenty of fill within each shard.
DEFAULT_SHARD_DAYS = 28


def plan_shards(n_days: int) -> tuple[tuple[int, int], ...]:
    """Contiguous ``[start, stop)`` day ranges covering ``n_days``.

    The final shard absorbs the remainder, so no shard is shorter than
    :data:`DEFAULT_SHARD_DAYS` except when the window itself is.
    """
    if n_days <= 0:
        raise ValueError("n_days must be positive")
    shard_days = DEFAULT_SHARD_DAYS
    edges = list(range(0, n_days, shard_days))
    shards = [
        (start, min(start + shard_days, n_days)) for start in edges
    ]
    # Merge a short tail into its predecessor to keep shards near-uniform.
    if len(shards) >= 2 and shards[-1][1] - shards[-1][0] < shard_days // 2:
        shards[-2] = (shards[-2][0], shards[-1][1])
        shards.pop()
    return tuple(shards)


def resolve_jobs(jobs: int | None) -> int:
    """Worker count: ``None``/``0`` means one per available CPU."""
    if jobs is None or jobs <= 0:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux fallback
            return os.cpu_count() or 1
    return jobs


def effective_jobs(jobs: int | None, units: int | None = None) -> int:
    """The single worker-count resolution used by every executor.

    Resolves a ``--jobs`` request (``None``/``0`` = one per CPU) and
    clamps it to the number of schedulable ``units`` (shards, sweep
    cells).  The CLI, the shard executor, and the sweep scheduler all
    route through here so a request can never resolve to different
    counts in different layers.
    """
    workers = resolve_jobs(jobs)
    if units is not None:
        workers = min(workers, max(1, units))
    return max(1, workers)


# -- model substrate (read-only, memoised per process) -------------------------


@dataclass
class SimulationModels:
    """Deterministic, reusable model substrate for one study config."""

    plan: InternetPlan
    landscape: LandscapeModel
    campaigns: CampaignModel


def build_models(config: "StudyConfig") -> SimulationModels:
    """Build the plan, landscape and campaigns of one study config."""
    plan_config = config.plan or PlanConfig(seed=config.seed)
    plan = build_internet_plan(plan_config)
    scenario = config.scenario
    if scenario is not None and scenario.booter is not None:
        # Scenario takedowns replace the market wholesale (the baseline's
        # two historical events belong to the baseline narrative).
        booters = scenario.booter.market(config.calendar)
    elif config.include_takedowns:
        booters = BooterMarket.default(config.calendar)
    else:
        booters = BooterMarket.without_takedowns()
    landscape = LandscapeModel(
        config.calendar,
        dp_per_day=config.dp_per_day,
        ra_per_day=config.ra_per_day,
        sav=config.sav,
        booters=booters,
    )
    campaigns = CampaignModel(
        config.calendar,
        RngFactory(config.seed),
        config=config.campaigns,
        candidate_asns=[
            info.asn for info in plan.ases if info.target_weight > 0
        ],
    )
    return SimulationModels(plan=plan, landscape=landscape, campaigns=campaigns)


#: Substrates one process keeps.  Each holds about 0.58 MB, and ``serve``
#: pool workers and ``dist`` workers meet a new config with every distinct
#: job seed, so a memo that never evicts grows for the worker's lifetime.
#: Eight holds every leg of a three-seed what-if pairing (six configs) at
#: once.
MODELS_MEMO_SIZE = 8

_MODELS_MEMO: OrderedDict[str, SimulationModels] = OrderedDict()


def models_for(config: "StudyConfig") -> SimulationModels:
    """Per-process LRU memo of the substrate, keyed by config fingerprint.

    A hit makes the entry the most recent; a new config beyond
    :data:`MODELS_MEMO_SIZE` evicts the least recently used one.  Every
    step is one dict operation, so concurrent job threads can at worst
    build one substrate twice.
    """
    from repro.core.cache import config_fingerprint

    key = config_fingerprint(config)
    models = _MODELS_MEMO.pop(key, None)
    if models is None:
        models = build_models(config)
    _MODELS_MEMO[key] = models
    while len(_MODELS_MEMO) > MODELS_MEMO_SIZE:
        _MODELS_MEMO.popitem(last=False)
    return models


def generate_shard(
    config: "StudyConfig", start: int = 0, stop: int | None = None
) -> ShardBatch:
    """The ground truth of study days ``[start, stop)`` as one columnar batch.

    ``stop`` defaults to the end of the window.  The victim-recurrence
    pool starts empty at ``start``, so the output depends on the range,
    which is why the shard width is a constant.
    """
    models = models_for(config)
    generator = GroundTruthGenerator(
        models.plan,
        config.calendar,
        models.landscape,
        models.campaigns,
        config=config.generator,
        rng_factory=RngFactory(config.seed),
        day_range=(start, config.calendar.n_days if stop is None else stop),
        scenario=config.scenario,
    )
    return generator.shard_batch()


# -- shard execution -----------------------------------------------------------


def run_shard(
    config: "StudyConfig", start: int, stop: int
) -> tuple[dict[str, Observations], dict[AttackClass, np.ndarray]]:
    """Simulate one contiguous day range with fresh generator + observatories."""
    models = models_for(config)
    # Substrate sizes are recorded as gauges (idempotent absolute values):
    # every shard sets the same numbers, so the merged metrics are
    # identical for any worker count even though the memoised build
    # itself runs a process-dependent number of times.
    gauge("models.campaigns").set(len(models.campaigns))
    gauge("models.ases").set(len(models.plan.ases))
    # Fresh observatories per shard: they hold RNG state.
    observatories = build_observatories(config, models.plan)
    # Columnar hot path: synthesise the whole day range as one
    # struct-of-arrays shard, then let every observatory sweep it in one
    # vectorised pass.
    shard = generate_shard(config, start, stop)
    return observatories.run_shard(shard, config.calendar)


#: One shard's return payload: the simulation result plus the shard's
#: observability delta (metrics snapshot + serialised span tree).
ShardPayload = tuple[
    tuple[dict[str, Observations], dict[AttackClass, np.ndarray]],
    dict,
    dict,
]


def _run_shard_task(task: tuple["StudyConfig", int, int]) -> ShardPayload:
    """Run one shard inside its own observability collection context.

    Workers may process several shards each and (under ``fork``) inherit
    whatever the parent already recorded, so the shard's metrics are
    captured as an isolated *delta* — a fresh registry and tracer pushed
    for exactly this shard — and shipped home for the parent to merge in
    shard order.  This is what keeps the merged aggregates identical for
    any ``--jobs N``.
    """
    config, start, stop = task
    with collecting() as registry, tracing() as tracer:
        with span("simulate.shard"):
            result = run_shard(config, start, stop)
    return result, registry.snapshot(), tracer.tree()


#: Tagged worker return: ``("file", path)`` for a transport file the
#: collector should map and unlink, ``("mem", payload)`` for the pickle
#: fallback when the transport directory is unusable.
TransportResult = tuple[str, object]


def _run_shard_to_file(
    task: tuple["StudyConfig", int, int, str | None]
) -> TransportResult:
    """Worker entry point: run one shard, hand it home as a transport file.

    Only the file *path* crosses the multiprocessing result queue — the
    observation columns stay on disk until the collector maps them.  If
    the transport directory cannot be written (read-only temp dir, disk
    full), the payload falls back to the pickle path so the run still
    completes; the tag tells the collector which case it got.
    """
    from repro.core.shardio import write_shard

    config, start, stop, transport_dir = task
    payload = _run_shard_task((config, start, stop))
    if transport_dir is None:
        return "mem", payload
    (sinks, ground_truth), snapshot, tree = payload
    path = Path(transport_dir) / f"shard-{start:05d}-{stop:05d}.shard"
    try:
        write_shard(path, sinks, ground_truth, snapshot, tree)
    except OSError:
        return "mem", payload
    return "file", str(path)


def _collect_payload(result: TransportResult) -> ShardPayload:
    """Resolve one worker return into an in-memory payload.

    Transport files are memory-mapped (columns become zero-copy numpy
    views over the mapping) and unlinked immediately — the mapping keeps
    the pages alive until the merge has consumed them.
    """
    from repro.core.shardio import read_shard

    kind, value = result
    if kind == "mem":
        return value  # type: ignore[return-value]
    payload = read_shard(value)
    try:
        os.unlink(value)  # type: ignore[arg-type]
    except OSError:
        pass
    return payload


# -- persistent worker pool ----------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def _fork_context():
    start_methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in start_methods else None
    )


def _pool_worker_init() -> None:
    """Reset inherited pool globals inside a freshly started worker.

    Under the ``fork`` start method a worker inherits the parent's
    ``_POOL`` global — an executor whose management thread and queues do
    not survive the fork.  A worker that itself runs parallel work (a
    service job body calling ``simulate(jobs=N)``) must build its own
    sub-pool, so the inherited handle is cleared before any task runs.

    That sub-pool is shut down when the worker exits, by a finalizer
    that must outrank the sub-pool's own call-queue finalizer (exit
    priority 10): run after it, the queue's feeder thread is already
    stopped, the shutdown sentinels never reach the sub-pool's children,
    and the worker — and with it a draining daemon — hangs joining them.
    """
    global _POOL, _POOL_WORKERS
    _POOL, _POOL_WORKERS = None, 0
    multiprocessing.util.Finalize(None, shutdown_pool, exitpriority=20)


def _spawn_probe(delay_s: float) -> int:
    """Warm-up task: occupies a worker long enough for all forks to happen."""
    import time

    time.sleep(delay_s)
    return os.getpid()


def warm_pool(jobs: int | None = None) -> int:
    """Ensure a persistent worker pool with at least ``jobs`` workers.

    The pool outlives individual :func:`simulate` calls so repeated
    parallel runs — notably every job handled by ``ddoscovery serve`` —
    reuse already-forked workers instead of paying process startup each
    time.  Returns the pool's worker count.  Idempotent: an existing pool
    that is already large enough is kept (its forked children stay warm);
    a smaller one is replaced.

    Every worker is forked *here*, eagerly, not lazily at first submit:
    ``ProcessPoolExecutor`` otherwise forks at submit time, which in the
    service daemon means forking from a job thread while the event loop
    and other threads are running — a classic fork-with-threads race
    that intermittently loses the dispatch (the worker comes up but the
    call pipe feeder never hands it work).  Warm sites are quiet
    (process startup, daemon boot, crash recovery), so the forks happen
    deterministically and later submits never spawn processes.
    """
    global _POOL, _POOL_WORKERS
    workers = resolve_jobs(jobs)
    if _POOL is not None and _POOL_WORKERS >= workers:
        return _POOL_WORKERS
    shutdown_pool()
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_fork_context(),
        initializer=_pool_worker_init,
    )
    # One probe per worker, each sleeping briefly so no probe finishes
    # (and frees an idle worker) before every submit has forced a fork.
    probes = [pool.submit(_spawn_probe, 0.02) for _ in range(workers)]
    try:
        for probe in probes:
            probe.result(timeout=60)
    except Exception:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    _POOL = pool
    _POOL_WORKERS = workers
    return workers


def pool_submit(fn, /, *args, workers: int):
    """Submit one callable to the persistent warm pool, warming on demand.

    This is the service job layer's entry point: ``ddoscovery serve`` in
    process-execution mode routes whole job bodies through here so they
    run in warm worker processes instead of daemon threads.  ``workers``
    is the pool size to (re)warm to when no adequate pool exists; an
    existing larger pool is reused untouched.  Returns the
    :class:`concurrent.futures.Future` for the task.  Raises
    :class:`~concurrent.futures.process.BrokenProcessPool` if the pool
    died — callers recover by ``shutdown_pool()`` + resubmitting, which
    re-warms a fresh pool.
    """
    warm_pool(workers)
    assert _POOL is not None
    return _POOL.submit(fn, *args)


def shutdown_pool() -> None:
    """Tear down the persistent pool (safe to call when none exists).

    After a worker crash (``BrokenProcessPool``) this is how the executor
    recovers: the broken pool is discarded here and the next parallel
    ``simulate()`` call re-warms a fresh one.
    """
    global _POOL, _POOL_WORKERS
    pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pool)


def merge_shard_results(
    results: list[tuple[dict[str, Observations], dict[AttackClass, np.ndarray]]],
) -> tuple[dict[str, Observations], dict[AttackClass, np.ndarray]]:
    """Concatenate per-shard sinks (in shard order) and sum ground truth."""
    if not results:
        raise ValueError("no shard results to merge")
    first_sinks, first_truth = results[0]
    sinks = {
        name: Observations.merge([shard[0][name] for shard in results])
        for name in first_sinks
    }
    ground_truth = {
        attack_class: np.sum(
            [shard[1][attack_class] for shard in results], axis=0
        )
        for attack_class in first_truth
    }
    return sinks, ground_truth


def simulate(
    config: "StudyConfig", jobs: int | None = 1
) -> tuple[dict[str, Observations], dict[AttackClass, np.ndarray]]:
    """Run the full study simulation, sharded across ``jobs`` processes.

    Returns ``(observations per observatory, weekly ground truth per attack
    class)``.  Output is bit-for-bit identical for any ``jobs`` value;
    ``jobs=1`` (the default) runs the same shard plan in-process with zero
    multiprocessing overhead.
    """
    shards = plan_shards(config.calendar.n_days)
    workers = effective_jobs(jobs, len(shards))
    with span("simulate"):
        gauge("simulate.shards").set(len(shards))
        if workers <= 1:
            payloads = [
                _run_shard_task((config, start, stop))
                for start, stop in shards
            ]
        else:
            payloads = _simulate_parallel(config, shards, workers)
        results = []
        for result, snapshot, tree in payloads:
            results.append(result)
            absorb(snapshot, tree)
        with span("simulate.merge"):
            return merge_shard_results(results)


def _simulate_parallel(
    config: "StudyConfig",
    shards: tuple[tuple[int, int], ...],
    workers: int,
) -> list[ShardPayload]:
    """Fan shards out over the persistent pool with file transport.

    The per-run transport directory lives in the system temp dir and is
    removed in ``finally`` — worker crashes (and the half-written ``.tmp``
    files they may leave) can never orphan shard files.  If the directory
    cannot be created at all, workers fall back to shipping pickles.
    """
    # Warm the per-process substrate memo before the pool is created: with
    # the fork start method every worker inherits the built models and
    # pays no per-shard setup cost.  (A pool warmed earlier with a
    # different config still works — workers rebuild their own memo once.)
    models_for(config)
    warm_pool(workers)
    assert _POOL is not None
    transport_dir: str | None
    try:
        transport_dir = tempfile.mkdtemp(prefix="repro-transport-")
    except OSError:
        transport_dir = None
    tasks = [
        (config, start, stop, transport_dir) for start, stop in shards
    ]
    try:
        raw = list(_POOL.map(_run_shard_to_file, tasks))
        return [_collect_payload(result) for result in raw]
    except BrokenProcessPool:
        # A dead worker poisons the whole executor; discard it so the
        # next call re-warms a fresh pool instead of failing forever.
        shutdown_pool()
        raise
    finally:
        if transport_dir is not None:
            shutil.rmtree(transport_dir, ignore_errors=True)
