"""The managed job layer: bounded queue, workers, coalescing, drain.

A :class:`JobManager` owns an ``asyncio`` queue of :class:`Job` records
and a fixed pool of worker coroutines; each worker hands the job body to
a thread (the body itself shards its simulation across *processes* via
the existing executor in :mod:`repro.util.parallel`, so service worker
concurrency multiplies jobs, not threads-per-simulation).

Contracts the service tests pin down:

* **Bounded admission** — submissions beyond ``queue_size`` raise
  :class:`QueueFull` (the app answers 503) instead of buffering without
  limit.
* **Coalescing** — a submission whose key (kind + config fingerprint +
  artifact selection) matches a queued, running, or completed job
  returns that job instead of enqueueing a duplicate; the
  content-addressed study cache already dedupes across *differing*
  selections of the same config.
* **Cooperative cancellation** — queued jobs cancel immediately;
  running jobs observe :meth:`Job.raise_if_cancelled` between pipeline
  stages and abort at the next checkpoint.
* **Timeouts** — a per-job deadline marks the job ``timeout`` and
  requests cancellation; the worker slot is reused only after the
  stale body actually returns (single-thread executors queue), so a
  timed-out job can never corrupt a successor.
* **Graceful drain** — :meth:`JobManager.drain` stops admission,
  cancels everything still queued, and waits for running jobs to
  finish, which together with atomic cache writes and append-only
  sweep ledgers keeps on-disk state consistent across SIGTERM.

Observability: with one worker (the default) every job body runs inside
its own metrics/tracing context — absorbed into the daemon's registry
afterwards, exactly like sweep cells — and yields a per-job run manifest
carrying job provenance.  With more workers, bodies write into the
daemon context directly (concurrent per-job trees would interleave), so
``/v1/metrics`` stays accurate in aggregate either way.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs

#: Job lifecycle states (terminal: done/failed/cancelled/timeout).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TIMEOUT = "timeout"


class JobCancelled(Exception):
    """Raised by a job body at a cancellation checkpoint."""


class QueueFull(Exception):
    """The bounded job queue rejected a submission."""


class Draining(Exception):
    """The manager is draining and no longer admits jobs."""


@dataclass
class JobResult:
    """What a completed job produced."""

    #: artifact name -> canonical JSON bytes (served verbatim over HTTP).
    artifacts: dict[str, bytes] = field(default_factory=dict)
    #: small JSON-safe summary shown inline in the job document.
    summary: dict[str, Any] = field(default_factory=dict)


class Job:
    """One managed unit of work."""

    def __init__(
        self,
        job_id: str,
        kind: str,
        key: str,
        payload: dict[str, Any],
        timeout_s: float | None = None,
    ) -> None:
        self.id = job_id
        self.kind = kind
        self.key = key
        self.payload = payload
        self.timeout_s = timeout_s
        self.status = QUEUED
        self.error: str | None = None
        self.result: JobResult | None = None
        self.manifest: dict[str, Any] | None = None
        self.submitted_s = time.time()
        self.started_s: float | None = None
        self.finished_s: float | None = None
        #: incremental status published by long-running bodies (the
        #: whatif runner: cells completed, current divergence summary);
        #: ``None`` until the body first reports.
        self.progress: dict[str, Any] | None = None
        self._cancel = threading.Event()

    # -- incremental status --------------------------------------------------------

    def set_progress(self, payload: dict[str, Any]) -> None:
        """Publish an incremental status dict (shown in the job document).

        Assignment is atomic under the GIL, so the HTTP handler can read
        ``progress`` from the event loop while the body thread writes it.
        """
        self.progress = dict(payload)

    # -- cancellation ------------------------------------------------------------

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def request_cancel(self) -> None:
        self._cancel.set()

    def raise_if_cancelled(self) -> None:
        """Cancellation checkpoint for job bodies (between stages)."""
        if self._cancel.is_set():
            raise JobCancelled(self.id)

    # -- provenance / serialisation ----------------------------------------------

    def provenance(self) -> dict[str, str]:
        """The run-manifest ``job`` block."""
        return {"job_id": self.id, "kind": self.kind, "key": self.key}

    def to_dict(self) -> dict[str, Any]:
        """The JSON job document (``GET /v1/jobs/{id}``)."""
        document: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "key": self.key,
            "status": self.status,
            "cancel_requested": self.cancel_requested,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "error": self.error,
            "payload": self.payload,
        }
        if self.progress is not None:
            document["progress"] = self.progress
        if self.result is not None:
            document["artifacts"] = sorted(self.result.artifacts)
            document["summary"] = self.result.summary
        return document


#: A job body: runs in a worker thread, returns the result, and calls
#: ``job.raise_if_cancelled()`` between stages.
Runner = Callable[[Job], JobResult]


class JobManager:
    """Bounded queue + worker pool + coalescing index."""

    def __init__(
        self,
        runner: Runner,
        *,
        workers: int = 1,
        queue_size: int = 16,
        default_timeout_s: float | None = None,
        on_done: Callable[[Job], None] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if queue_size < 1:
            raise ValueError("queue size must be positive")
        self.runner = runner
        self.workers = workers
        self.queue_size = queue_size
        self.default_timeout_s = default_timeout_s
        #: called with each job that reaches ``done`` (the daemon warms
        #: the hot artifact cache here); hook failures never fail jobs.
        self.on_done = on_done
        self.draining = False
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._queue: asyncio.Queue[Job | None] = asyncio.Queue(
            maxsize=queue_size + workers  # sentinels always fit
        )
        self._admitted = 0
        self._tasks: list[asyncio.Task] = []
        self._executor = None  # created lazily on start()

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker tasks (call from a running event loop)."""
        from concurrent.futures import ThreadPoolExecutor

        if self._tasks:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-job"
        )
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"job-worker-{index}")
            for index in range(self.workers)
        ]

    async def drain(self, timeout: float | None = None) -> None:
        """Stop admission, cancel queued jobs, wait for running ones.

        After the ``timeout`` grace period (``None`` = wait forever)
        running jobs get a cooperative cancel request and one more
        bounded wait; the manager never hard-kills a body mid-write.
        """
        self.draining = True
        for job in self._jobs.values():
            if job.status == QUEUED:
                self._finish(job, CANCELLED, error="cancelled by drain")
        for _ in self._tasks:
            self._queue.put_nowait(None)
        if not self._tasks:
            return
        done, pending = await asyncio.wait(self._tasks, timeout=timeout)
        if pending:
            for job in self.running():
                job.request_cancel()
            await asyncio.wait(pending, timeout=timeout)
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    # -- admission ---------------------------------------------------------------

    def submit(
        self,
        kind: str,
        key: str,
        payload: dict[str, Any],
        *,
        timeout_s: float | None = None,
    ) -> tuple[Job, bool]:
        """Admit (or coalesce) one job; returns ``(job, coalesced)``.

        Raises :class:`Draining` after drain started and
        :class:`QueueFull` when the bounded queue is at capacity.
        """
        if self.draining:
            raise Draining("service is draining")
        existing_id = self._by_key.get(key)
        if existing_id is not None:
            existing = self._jobs[existing_id]
            if existing.status not in (FAILED, CANCELLED, TIMEOUT):
                obs.counter("service.jobs.coalesced").inc()
                return existing, True
        if self._admitted >= self.queue_size:
            obs.counter("service.jobs.rejected").inc()
            raise QueueFull(
                f"job queue at capacity ({self.queue_size} admitted)"
            )
        job = Job(
            f"job-{next(self._ids):04d}",
            kind,
            key,
            payload,
            timeout_s=timeout_s if timeout_s is not None else self.default_timeout_s,
        )
        self._jobs[job.id] = job
        self._by_key[key] = job.id
        self._admitted += 1
        self._queue.put_nowait(job)
        obs.counter("service.jobs.submitted").inc()
        obs.gauge("service.queue.depth").set(self._admitted)
        return job, False

    # -- queries -----------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All known jobs in submission order."""
        return list(self._jobs.values())

    def running(self) -> list[Job]:
        return [job for job in self._jobs.values() if job.status == RUNNING]

    def counts(self) -> dict[str, int]:
        """Jobs per status (the health document)."""
        counts: dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    def cancel(self, job_id: str) -> Job | None:
        """Cancel one job; returns it, or ``None`` when unknown.

        Queued jobs flip to ``cancelled`` immediately; running jobs get
        a cooperative cancel request honoured at the body's next
        checkpoint; terminal jobs are left untouched.
        """
        job = self._jobs.get(job_id)
        if job is None:
            return None
        if job.status == QUEUED:
            self._finish(job, CANCELLED, error="cancelled while queued")
        elif job.status == RUNNING:
            job.request_cancel()
        return job

    # -- execution ---------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            if job is None:
                return
            if job.status != QUEUED:
                continue  # cancelled while waiting in the queue
            await self._execute(job)

    async def _execute(self, job: Job) -> None:
        job.status = RUNNING
        job.started_s = time.time()
        # The execution counter is what proves coalescing under load: a
        # thundering herd of identical submissions shares one job, so
        # this increments exactly once per herd.  Recorded before the
        # per-job isolation context so it is visible in the daemon's
        # registry while the job is still running.
        obs.counter("service.jobs.executed", kind=job.kind).inc()
        loop = asyncio.get_running_loop()
        # Per-job observability contexts are only well-nested when one
        # job runs at a time; with more workers, bodies record straight
        # into the daemon context (aggregate metrics stay correct).
        isolate = self.workers == 1 and obs.enabled()
        collecting = obs.collecting() if isolate else None
        tracing = obs.tracing() if isolate else None
        registry = collecting.__enter__() if collecting else None
        tracer = tracing.__enter__() if tracing else None
        try:
            with obs.span(f"service.job[{job.kind}]") if isolate else _noop():
                future = loop.run_in_executor(
                    self._executor, self.runner, job
                )
                result = await asyncio.wait_for(future, timeout=job.timeout_s)
        except asyncio.TimeoutError:
            job.request_cancel()
            self._finish(
                job, TIMEOUT, error=f"exceeded {job.timeout_s:.0f}s timeout"
            )
        except JobCancelled:
            self._finish(job, CANCELLED, error="cancelled while running")
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            self._finish(job, FAILED, error=f"{type(error).__name__}: {error}")
        else:
            job.result = result
            self._finish(job, DONE)
        finally:
            if isolate:
                snapshot, tree = registry.snapshot(), tracer.tree()
                tracing.__exit__(None, None, None)
                collecting.__exit__(None, None, None)
                obs.absorb(snapshot, tree)
                job.manifest = obs.build_manifest(
                    "service-job",
                    registry=registry,
                    tracer=tracer,
                    argv=[],
                    job=job.provenance(),
                )

    def _finish(self, job: Job, status: str, *, error: str | None = None) -> None:
        job.status = status
        job.error = error
        job.finished_s = time.time()
        self._admitted = max(0, self._admitted - 1)
        obs.counter(f"service.jobs.{status}").inc()
        obs.gauge("service.queue.depth").set(self._admitted)
        if status == DONE and self.on_done is not None:
            try:
                self.on_done(job)
            except Exception:  # noqa: BLE001 - cache warming must not fail jobs
                obs.counter("service.jobs.on_done_errors").inc()


class _noop:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None
