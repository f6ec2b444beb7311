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
  artifact selection) matches a queued, running, or kept completed job
  returns that job instead of enqueueing a duplicate; the
  content-addressed study cache already dedupes across *differing*
  selections of the same config.
* **Bounded retention** — the manager keeps every queued and running
  job but only the newest :data:`KEPT_FINISHED_JOBS` finished ones:
  when another job finishes, the oldest finished job is forgotten, so
  its id answers 404 and resubmitting its payload runs a new job (a
  study-cache hit).
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

Observability: every job body runs inside its own metrics and tracing
context, opened on the executor thread that runs it.  Contexts nest per
thread, so concurrent jobs never share one, and what the event loop
records (HTTP, queue and lease counters) stays in the daemon's context
while jobs run.  When a body returns, its context is absorbed into the
daemon's, exactly like a sweep cell's, and the job keeps a run manifest
carrying its provenance.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.service.http import make_etag

#: Job lifecycle states (terminal: done/failed/cancelled/timeout).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TIMEOUT = "timeout"

#: Finished jobs (with their payloads, artifact bytes and manifests) a
#: manager keeps; beyond this the oldest finished job is dropped.
KEPT_FINISHED_JOBS = 64


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
    #: artifact name -> strong ETag of its bytes, hashed once here (in
    #: the process that ran the body) so no request hashes a body.
    etags: dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.etags = {name: make_etag(body) for name, body in self.artifacts.items()}


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
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if queue_size < 1:
            raise ValueError("queue size must be positive")
        self.runner = runner
        self.workers = workers
        self.queue_size = queue_size
        self.default_timeout_s = default_timeout_s
        self.draining = False
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, str] = {}
        #: ids of the kept finished jobs, oldest first.
        self._finished: deque[str] = deque()
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
        for job in self.jobs():
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
        self, kind: str, key: str, payload: dict[str, Any]
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
            timeout_s=self.default_timeout_s,
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
        # this increments exactly once per herd.
        obs.counter("service.jobs.executed", kind=job.kind).inc()
        opened: list[obs.MetricsRegistry] = []
        finished: list[obs.Tracer] = []

        def observed(job: Job) -> JobResult:
            # Contexts nest per thread, so the job's registry, tracer and
            # span open on the executor thread that runs the body: its
            # records, and the payload a pool worker ships home, land in
            # them.
            with obs.collecting() as registry, obs.tracing() as tracer:
                opened.append(registry)
                try:
                    with obs.span(f"service.job[{job.kind}]"):
                        return self.runner(job)
                finally:
                    # Handed over once the body has returned: a timed-out
                    # body may still be writing to its tracer.
                    finished.append(tracer)

        try:
            await self._run(job, observed)
        finally:
            # A job that timed out before its body started has no context.
            registry = opened[0] if opened else obs.MetricsRegistry()
            tracer = finished[0] if finished else None
            obs.absorb(registry.snapshot(), tracer.tree() if tracer else None)
            job.manifest = obs.build_manifest(
                "service-job",
                registry=registry,
                tracer=tracer,
                argv=[],
                job=job.provenance(),
            )

    async def _run(self, job: Job, body: Runner) -> None:
        """Run one job body on the executor and record how it ended."""
        loop = asyncio.get_running_loop()
        try:
            future = loop.run_in_executor(self._executor, body, job)
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

    def _finish(self, job: Job, status: str, *, error: str | None = None) -> None:
        job.status = status
        job.error = error
        job.finished_s = time.time()
        self._admitted = max(0, self._admitted - 1)
        obs.counter(f"service.jobs.{status}").inc()
        obs.gauge("service.queue.depth").set(self._admitted)
        self._finished.append(job.id)
        if len(self._finished) > KEPT_FINISHED_JOBS:
            oldest = self._jobs.pop(self._finished.popleft())
            # A resubmission after a failure may own the key by now.
            if self._by_key.get(oldest.key) == oldest.id:
                del self._by_key[oldest.key]
