"""Job bodies: translate service payloads into pipeline runs.

:func:`parse_submission` validates a ``POST /v1/jobs`` body up front —
unknown kinds, presets, or artifact names fail the request with a 400
before anything is queued — and derives the job's **coalescing key**
from content fingerprints (:func:`repro.core.cache.config_fingerprint`
for studies and conformance, the spec fingerprint for sweeps), so two
payloads that *mean* the same work coalesce even when they spell it
differently (``{"preset": "seed0-small"}`` vs the equivalent explicit
``{"seed": 0, "weeks": 69}``... wherever the fingerprints agree).

:func:`make_runner` closes over the daemon's
:class:`~repro.service.daemon.ServiceConfig` and dispatches on
``job.kind``; every body reads its shard count, cache settings and
ledger root (the cache dir) from that one frozen config.  Bodies call
:meth:`~repro.service.jobs.Job.raise_if_cancelled` between pipeline
stages, and the sweep body additionally threads the cancel flag into
``run_sweep(should_stop=...)`` so a cancelled sweep stops at the next
cell boundary with its ledger intact.

Two execution modes (``ServiceConfig.execution``):

* ``"thread"`` — the body runs directly on the manager's worker thread
  (the original PR 5 behaviour; also what stub runners in tests use).
* ``"process"`` — the body is dispatched onto the **persistent
  multi-process warm pool** (:func:`repro.util.parallel.pool_submit`),
  so concurrent jobs parallelise across real processes, a job hogging
  the GIL cannot stall the daemon, and a crashed body takes down one
  worker process — never the service.  The thread-side wrapper polls
  the future, relays cooperative cancellation through a flag *file*
  (thread events do not cross process boundaries), absorbs the
  worker's observability delta, and on ``BrokenProcessPool`` (a worker
  killed mid-job) re-warms the pool and fails the job cleanly so the
  next submission finds healthy workers.

Every artifact a body produces is the **canonical JSON bytes** from
:func:`repro.core.artifacts.artifact_json_bytes` — the same encoder the
CLI's ``artifact get`` and the library's export helpers use — which is
what makes an HTTP-fetched artifact bit-identical to its batch-produced
twin.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.service.jobs import Job, JobCancelled, JobResult
from repro.util.atomic import atomic_write

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.service.daemon import ServiceConfig

KINDS = ("study", "sweep", "conformance", "whatif")

EXECUTION_MODES = ("thread", "process")

#: How often the thread-side wrapper of a process job wakes to relay a
#: cancellation request into the worker's flag file.
_CANCEL_POLL_S = 0.05


# -- payload parsing -----------------------------------------------------------


def study_config_from_payload(payload: Any) -> "Any":
    """Build a :class:`~repro.core.study.StudyConfig` from a JSON config.

    Two spellings: ``{"preset": "seed0-small"}`` names a pinned
    configuration from :func:`repro.core.golden.pinned_configs`, and
    ``{"seed": 0, "weeks": 69}`` builds one over the shared
    :func:`~repro.util.calendar.calendar_for_weeks` window (``weeks``
    omitted or ``null`` means the full paper window).  Raises
    :class:`ValueError` on anything else.
    """
    from repro.core.golden import pinned_configs
    from repro.core.study import StudyConfig
    from repro.util.calendar import calendar_for_weeks

    if not isinstance(payload, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(payload) - {"preset", "seed", "weeks"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    preset = payload.get("preset")
    if preset is not None:
        if set(payload) != {"preset"}:
            raise ValueError("config preset does not combine with seed/weeks")
        pinned = pinned_configs()
        if preset not in pinned:
            raise ValueError(
                f"unknown config preset {preset!r}; available: {sorted(pinned)}"
            )
        return pinned[preset]
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError("config seed must be an integer")
    weeks = payload.get("weeks")
    if weeks is not None and (not isinstance(weeks, int) or isinstance(weeks, bool)):
        raise ValueError("config weeks must be an integer or null")
    return StudyConfig(seed=seed, calendar=calendar_for_weeks(weeks))


def parse_submission(body: Any) -> tuple[str, str, dict[str, Any]]:
    """Validate one job submission; returns ``(kind, key, payload)``.

    The returned payload is normalised (defaults filled in, artifact
    lists sorted) so the job document shows exactly what will run, and
    the key depends only on content fingerprints.  Raises
    :class:`ValueError` with a client-facing message on bad input.
    """
    from repro.core.artifacts import artifact_names, artifact_spec
    from repro.core.cache import config_fingerprint

    if not isinstance(body, dict):
        raise ValueError("submission must be a JSON object")
    kind = body.get("kind")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {list(KINDS)}")

    if kind == "study":
        config = study_config_from_payload(body.get("config", {}))
        names = body.get("artifacts")
        if names is None:
            names = artifact_names()
        if not isinstance(names, list) or not all(
            isinstance(name, str) for name in names
        ):
            raise ValueError("artifacts must be a list of names")
        for name in names:
            artifact_spec(name)  # raises KeyError listing valid names
        names = sorted(set(names))
        if not names:
            raise ValueError("artifacts must not be empty")
        fingerprint = config_fingerprint(config)
        selection = hashlib.sha256(",".join(names).encode("ascii")).hexdigest()
        payload = {
            "kind": kind,
            "config": dict(body.get("config", {})) or {"seed": 0, "weeks": None},
            "artifacts": names,
            "config_fingerprint": fingerprint,
        }
        return kind, f"study:{fingerprint}:{selection[:16]}", payload

    if kind == "sweep":
        from repro.sweep.presets import preset as sweep_preset
        from repro.sweep.spec import spec_fingerprint

        name = body.get("preset")
        if not isinstance(name, str):
            raise ValueError("sweep submissions need a preset name")
        try:
            spec = sweep_preset(name)
        except KeyError as error:
            raise ValueError(str(error.args[0])) from None
        resume = body.get("resume", True)
        if not isinstance(resume, bool):
            raise ValueError("resume must be a boolean")
        fingerprint = spec_fingerprint(spec)
        payload = {
            "kind": kind,
            "preset": name,
            "resume": resume,
            "spec_fingerprint": fingerprint,
        }
        return kind, f"sweep:{fingerprint}:resume={resume}", payload

    if kind == "whatif":
        from repro.counterfactual import whatif_preset

        name = body.get("preset")
        if not isinstance(name, str):
            raise ValueError("whatif submissions need a preset name")
        strength = body.get("strength", 1.0)
        if isinstance(strength, bool) or not isinstance(strength, (int, float)):
            raise ValueError("strength must be a number")
        if strength < 0:
            raise ValueError("strength must be >= 0")
        resume = body.get("resume", True)
        if not isinstance(resume, bool):
            raise ValueError("resume must be a boolean")
        try:
            pairing = whatif_preset(name, float(strength))
        except KeyError as error:
            raise ValueError(str(error.args[0])) from None
        fingerprint = pairing.fingerprint()
        payload = {
            "kind": kind,
            "preset": name,
            "strength": float(strength),
            "resume": resume,
            "spec_fingerprint": fingerprint,
        }
        return kind, f"whatif:{fingerprint}:resume={resume}", payload

    # conformance
    config = study_config_from_payload(body.get("config", {}))
    goldens = body.get("goldens", True)
    if not isinstance(goldens, bool):
        raise ValueError("goldens must be a boolean")
    fingerprint = config_fingerprint(config)
    payload = {
        "kind": kind,
        "config": dict(body.get("config", {})) or {"seed": 0, "weeks": None},
        "goldens": goldens,
        "config_fingerprint": fingerprint,
    }
    return kind, f"conformance:{fingerprint}:goldens={goldens}", payload


# -- job bodies ----------------------------------------------------------------


def _study_for(job: Job, config: ServiceConfig) -> "Any":
    from repro.core.study import Study

    study_config = study_config_from_payload(job.payload["config"])
    job.raise_if_cancelled()
    study = Study(
        study_config,
        jobs=config.jobs,
        cache=config.cache,
        cache_dir=config.cache_dir,
    )
    study.observations  # the expensive stage (sharded, cached)
    job.raise_if_cancelled()
    return study


def run_study_job(job: Job, config: ServiceConfig) -> JobResult:
    """Simulate once, then extract each requested artifact."""
    from repro.core.artifacts import artifact_json_bytes, study_envelope
    from repro.core.cache import config_fingerprint

    study = _study_for(job, config)
    artifacts: dict[str, bytes] = {}
    for name in job.payload["artifacts"]:
        job.raise_if_cancelled()
        artifacts[name] = artifact_json_bytes(study_envelope(study, name))
    return JobResult(
        artifacts=artifacts,
        summary={
            "config_fingerprint": config_fingerprint(study.config),
            "window": f"{study.calendar.start}..{study.calendar.end}",
            "n_weeks": study.calendar.n_weeks,
            "seed": study.config.seed,
            "artifacts": sorted(artifacts),
        },
    )


def _executor(job: Job, coordinator, spec_kind: str):
    """The coordinator's cell executor for this job (``None``: inline).

    Workers get the job's preset by name and expand it themselves.
    """
    if coordinator is None:
        return None
    task = {
        "spec_kind": spec_kind,
        "preset": job.payload["preset"],
        "strength": job.payload.get("strength"),
        "spec_fingerprint": job.payload["spec_fingerprint"],
    }
    return partial(coordinator.execute, task)


def run_sweep_job(job: Job, config: ServiceConfig, coordinator=None) -> JobResult:
    """Run (or resume) a preset sweep; cancellation stops at a cell edge.

    Every settled cell publishes progress (cells done, executed vs
    ledger hits).  On a coordinator daemon the cells the ledger does not
    hold are leased to dist workers; the body and the bytes are the same.
    """
    from repro.core.artifacts import artifact_json_bytes
    from repro.sweep.ledger import SweepLedger
    from repro.sweep.presets import preset as sweep_preset
    from repro.sweep.scheduler import run_sweep

    ledger = SweepLedger(sweep_preset(job.payload["preset"]), root=config.cache_dir)
    progress = {
        "n_cells": len(ledger.cells),
        "cells_done": 0,
        "executed": 0,
        "ledger_hits": 0,
    }

    def on_cell(cell, status: str, record) -> None:
        progress["cells_done"] += 1
        progress["executed" if status == "executed" else "ledger_hits"] += 1
        job.set_progress(progress)

    outcome = run_sweep(
        ledger,
        jobs=config.jobs,
        resume=job.payload["resume"],
        cache=config.cache,
        cache_dir=config.cache_dir,
        should_stop=lambda: job.cancel_requested,
        on_cell=on_cell,
        executor=_executor(job, coordinator, "sweep-preset"),
    )
    # A stop honoured mid-sweep leaves the ledger resumable; surface the
    # job as cancelled rather than pretending the ensemble completed.
    job.raise_if_cancelled()
    report = outcome.report
    document = {
        "kind": "sweep-report",
        "preset": job.payload["preset"],
        "sweep_id": outcome.sweep_id,
        "spec_fingerprint": job.payload["spec_fingerprint"],
        "n_cells": report.n_cells if report is not None else 0,
        "n_done": len(report.cells) if report is not None else 0,
        "stopped": outcome.stopped,
        "rendered": report.render() if report is not None else "",
    }
    return JobResult(
        artifacts={"report": artifact_json_bytes(document)},
        summary={
            "sweep_id": outcome.sweep_id,
            "executed": len(outcome.executed),
            "ledger_hits": len(outcome.ledger_hits),
            "stopped": outcome.stopped,
        },
    )


def run_whatif_job(job: Job, config: ServiceConfig, coordinator=None) -> JobResult:
    """Run (or resume) a counterfactual pairing with incremental status.

    The long-running job kind: every settled cell publishes a progress
    dict (cells completed, executed vs ledger hits, the running
    divergence summary) via ``job.set_progress`` — visible in the job
    document while the pairing is still simulating.  Cancellation stops
    at the next cell edge with the pairing ledger resumable.  On a
    coordinator daemon the cells are leased to dist workers, as for
    sweeps.
    """
    from repro.core.artifacts import artifact_json_bytes
    from repro.counterfactual import run_whatif, whatif_preset

    pairing = whatif_preset(job.payload["preset"], job.payload["strength"])
    outcome = run_whatif(
        pairing,
        jobs=config.jobs,
        resume=job.payload["resume"],
        cache=config.cache,
        cache_dir=config.cache_dir,
        should_stop=lambda: job.cancel_requested,
        on_progress=job.set_progress,
        executor=_executor(job, coordinator, "whatif-preset"),
    )
    # A stop honoured mid-pairing leaves the ledger resumable; surface
    # the job as cancelled rather than pretending the pairing completed.
    job.raise_if_cancelled()
    report = outcome.report
    if report is None:
        raise RuntimeError(
            "pairing stopped before any seed completed both legs"
        )
    return JobResult(
        artifacts={"detection": artifact_json_bytes(report.to_document())},
        summary={
            "sweep_id": outcome.sweep_id,
            "executed": len(outcome.sweep.executed),
            "ledger_hits": len(outcome.sweep.ledger_hits),
            "stopped": outcome.stopped,
            "complete": report.complete,
            "n_detected": len(report.detected()),
            "n_flips": len(report.flips()),
        },
    )


def run_conformance_job(job: Job, config: ServiceConfig) -> JobResult:
    """Evaluate paper conformance (and goldens, for pinned configs)."""
    from repro.core.artifacts import artifact_json_bytes
    from repro.core.cache import config_fingerprint
    from repro.core.conformance import evaluate_conformance
    from repro.core.golden import pinned_configs, verify_study

    study = _study_for(job, config)
    report = evaluate_conformance(study)
    job.raise_if_cancelled()
    golden: dict[str, Any] | None = None
    if job.payload["goldens"]:
        fingerprint = config_fingerprint(study.config)
        for name, pinned in pinned_configs().items():
            if config_fingerprint(pinned) == fingerprint:
                comparison = verify_study(study, name)
                golden = {
                    "name": name,
                    "status": comparison.status,
                    "mismatches": list(comparison.mismatches),
                }
                break
    document = {
        "kind": "conformance-report",
        "config_fingerprint": config_fingerprint(study.config),
        "ok": report.ok,
        "n_pass": report.n_pass,
        "n_fail": report.n_fail,
        "n_skip": report.n_skip,
        "statuses": report.statuses(),
        "golden": golden,
        "rendered": report.render(),
    }
    return JobResult(
        artifacts={"conformance": artifact_json_bytes(document)},
        summary={
            "ok": report.ok,
            "n_pass": report.n_pass,
            "n_fail": report.n_fail,
            "n_skip": report.n_skip,
            "golden": None if golden is None else golden["status"],
        },
    )


#: kind -> body.  Module-level (not closed over) so process workers
#: resolve bodies from their own forked module state — which is also the
#: seam fault-injection tests patch to simulate worker crashes.
_BODIES = {
    "study": run_study_job,
    "sweep": run_sweep_job,
    "conformance": run_conformance_job,
    "whatif": run_whatif_job,
}

#: kinds whose cells a coordinator daemon leases to dist workers.
_LEASED_KINDS = ("sweep", "whatif")


# -- process-mode dispatch -----------------------------------------------------


@dataclass
class ProcessJob:
    """Worker-process stand-in for a :class:`Job`.

    Exposes exactly the surface job bodies use (``id``, ``kind``,
    ``payload``, cancellation checkpoints) and is picklable, unlike the
    real job whose ``threading.Event`` cannot cross a process boundary.
    Cancellation arrives as a flag *file*: the daemon-side wrapper
    touches ``cancel_path`` when the client cancels, and every
    checkpoint here is one ``os.path.exists`` probe.
    """

    id: str
    kind: str
    payload: dict[str, Any]
    cancel_path: str | None = None
    #: where incremental progress goes (``set_progress`` writes JSON
    #: here atomically; the daemon-side poll loop relays it to the real
    #: job).  ``None`` disables progress publication.
    progress_path: str | None = None

    @property
    def cancel_requested(self) -> bool:
        return bool(self.cancel_path) and os.path.exists(self.cancel_path)

    def raise_if_cancelled(self) -> None:
        if self.cancel_requested:
            raise JobCancelled(self.id)

    def set_progress(self, payload: dict[str, Any]) -> None:
        """Publish progress across the process boundary (atomic write)."""
        if not self.progress_path:
            return
        with atomic_write(self.progress_path) as handle:
            handle.write(json.dumps(payload).encode("utf-8"))


def _execute_job_body(
    job_id: str,
    kind: str,
    payload: dict[str, Any],
    config: ServiceConfig,
    cancel_path: str | None,
    progress_path: str | None = None,
) -> tuple[JobResult, dict, dict]:
    """Warm-pool entry point: run one job body in this worker process.

    Mirrors the shard-worker protocol: the body runs inside its own
    observability collection context and ships ``(result, metrics
    snapshot, span tree)`` home for the daemon to absorb, so
    ``/v1/metrics`` aggregates stay complete in process mode.
    """
    from repro import obs

    proxy = ProcessJob(
        id=job_id,
        kind=kind,
        payload=payload,
        cancel_path=cancel_path,
        progress_path=progress_path,
    )
    with obs.collecting() as registry, obs.tracing() as tracer:
        with obs.span(f"service.body[{kind}]"):
            result = _BODIES[kind](proxy, config)
    return result, registry.snapshot(), tracer.tree()


#: Prefix of a daemon's job flag directory in the system temp dir,
#: ``repro-serve-<pid>-*``: it holds the cancel flag and progress file
#: of each process-mode job while the job runs.
FLAG_DIR_PREFIX = "repro-serve-"


def make_flag_dir() -> str:
    """A new job flag directory for this daemon, named for its pid.

    The daemon removes it when it drains.  One killed first (SIGKILL, an
    OOM kill, a failed bind) leaves it behind, so this first removes the
    flag directories whose pid no longer runs.
    """
    for path in Path(tempfile.gettempdir()).glob(f"{FLAG_DIR_PREFIX}*-*"):
        pid = path.name[len(FLAG_DIR_PREFIX) :].partition("-")[0]
        if not pid.isdecimal():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except (PermissionError, OverflowError):
            pass  # another user's live process, or no pid at all
    return tempfile.mkdtemp(prefix=f"{FLAG_DIR_PREFIX}{os.getpid()}-")


def _run_job_in_pool(job: Job, config: ServiceConfig, flag_dir: str) -> JobResult:
    """Dispatch one job body onto the persistent warm pool and await it.

    Runs on the manager's worker thread; the body itself runs in a pool
    process.  The thread polls the future so it can relay a cooperative
    cancel (touching the flag file) while the body is mid-flight.  A
    worker killed mid-job surfaces as ``BrokenProcessPool``: the broken
    pool is discarded, a fresh one is warmed immediately, and the job
    fails with a clear error instead of hanging — the next submission
    finds healthy workers.  The job's flag files live in the daemon's
    ``flag_dir`` and are removed when it ends.
    """
    from concurrent.futures import TimeoutError as FutureTimeout
    from concurrent.futures.process import BrokenProcessPool

    from repro import obs
    from repro.util import parallel

    workers = max(1, config.workers)
    cancel_path = os.path.join(flag_dir, job.id)
    progress_path = cancel_path + ".progress"

    def relay_progress() -> None:
        # Relay the body's incremental status (whatif jobs); os.replace
        # makes the file appear atomically, so a read never sees a torn
        # document.
        try:
            with open(progress_path, encoding="utf-8") as handle:
                job.set_progress(json.load(handle))
        except (OSError, ValueError):
            pass

    try:
        try:
            future = parallel.pool_submit(
                _execute_job_body,
                job.id,
                job.kind,
                job.payload,
                config,
                cancel_path,
                progress_path,
                workers=workers,
            )
            while True:
                try:
                    result, snapshot, tree = future.result(
                        timeout=_CANCEL_POLL_S
                    )
                    break
                except FutureTimeout:
                    if job.cancel_requested and not os.path.exists(cancel_path):
                        Path(cancel_path).touch()
                    relay_progress()
        except BrokenProcessPool:
            parallel.shutdown_pool()
            parallel.warm_pool(workers)
            obs.counter("service.jobs.worker_crashes").inc()
            raise RuntimeError(
                "job worker process died unexpectedly (pool re-warmed)"
            ) from None
    finally:
        # One last read on every exit path: a fast job (all ledger hits)
        # can finish before the poll loop's first iteration, and the
        # final payload must land on the completed job either way.
        relay_progress()
        for path in (cancel_path, progress_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    obs.absorb(snapshot, tree)
    return result


def make_runner(config: ServiceConfig, flag_dir: str, coordinator=None):
    """The :class:`~repro.service.jobs.JobManager` runner for a daemon
    whose job flag directory is ``flag_dir`` (:func:`make_flag_dir`).

    With a ``coordinator`` (a ``--role coordinator`` daemon), sweep and
    what-if bodies pass it to ``run_sweep`` as their cell executor.  Its
    lease state lives only in this process, so those bodies always run
    on the manager's worker thread — even in ``"process"`` execution
    mode, where every other kind still ships to the warm pool.
    """

    def run(job: Job) -> JobResult:
        if coordinator is not None and job.kind in _LEASED_KINDS:
            return _BODIES[job.kind](job, config, coordinator)
        if config.execution == "process":
            return _run_job_in_pool(job, config, flag_dir)
        return _BODIES[job.kind](job, config)

    return run
