"""The dist coordinator: a cell executor that leases cells to workers.

One :class:`DistCoordinator` lives inside a ``--role coordinator``
daemon.  Its :meth:`~DistCoordinator.execute` is the cell executor that
daemon's sweep and what-if jobs pass to
:func:`repro.sweep.scheduler.run_sweep`: ``run_sweep`` settles the cells
its ledger already holds, the coordinator queues the rest, workers pull
**leases** (one cell each) over ``/v1/dist/*``, and each verified upload
goes back to the waiting ``run_sweep``, which appends it to the ordinary
resumable JSONL ledger.  The first completion per cell is accepted, so a
duplicate can never flip a published result, and the report built from
the ledger is byte-identical to a serial run.

``run_sweep`` is the only ledger writer; the coordinator keeps no
durable state.  A restarted coordinator has forgotten every lease:
resubmitting the job runs ``run_sweep`` again, its ledger pass counts
every cell that reached the ledger as a hit, and only the missing cells
are leased.  Workers it does not know are told ``unknown-worker`` and
register again.

Failure model (pinned by ``tests/test_dist_coordinator.py``):

* **lease expiry** — a lease not renewed within its TTL returns its
  cell to the front of the queue; the next acquire re-dispatches it
  (``service.dist.leases.expired`` / ``.retried``).
* **heartbeat loss** — a worker silent past the heartbeat timeout is
  evicted and all its leases expire immediately
  (``service.dist.workers.evicted``).
* **stale completion** — a result arriving under an expired, evicted
  or withdrawn lease is rejected with a structured ``stale-lease``
  error; the re-dispatched lease recomputes the (deterministic) cell.
* **hash mismatch** — an upload whose canonical-bytes sha256 does not
  match its payload is rejected (``result-hash-mismatch``) and the cell
  re-queued.

Everything is guarded by one lock: handlers run on the daemon's event
loop thread while ``run_sweep`` waits on a manager worker thread.
Expiry and eviction are *lazy* — :meth:`tick` runs at the top of every
dist request and every wait for an upload, so no background timer
thread exists to leak or race during drain.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro import obs
from repro.service.dist.protocol import (
    DIST_CAPABILITIES,
    DIST_PROTOCOL_VERSION,
    ProtocolError,
    check_protocol,
    resolve_spec,
    result_sha256,
)
from repro.sweep.scheduler import Settled
from repro.sweep.spec import SweepCell, sweep_id


@dataclass
class _Worker:
    """One registered worker's liveness and accounting state."""

    worker_id: str
    capabilities: tuple[str, ...]
    last_seen: float
    completed: int = 0
    heartbeats: int = 0


@dataclass
class _Lease:
    """One in-flight cell assignment."""

    lease_id: str
    task_id: str
    cell_index: int
    worker_id: str
    deadline: float
    attempt: int


@dataclass
class _Task:
    """One in-flight execution: the cells a waiting ``run_sweep`` is owed."""

    task_id: str
    descriptor: dict[str, Any]
    cells: dict[int, SweepCell] = field(default_factory=dict)
    #: cell indices still waiting for a lease (re-queued cells join at
    #: the front so a re-dispatch happens before fresh work).
    pending: list[int] = field(default_factory=list)
    leased: dict[int, str] = field(default_factory=dict)  # index -> lease_id
    #: cells with no accepted upload yet.
    owed: set[int] = field(default_factory=set)
    #: accepted uploads not yet handed to ``run_sweep``.
    arrivals: list[Settled] = field(default_factory=list)
    #: attempts already spent per cell (for lease documents / metrics).
    attempts: dict[int, int] = field(default_factory=dict)


class DistCoordinator:
    """Thread-safe lease coordinator for one daemon process."""

    def __init__(
        self,
        *,
        lease_ttl_s: float = 60.0,
        heartbeat_interval_s: float = 5.0,
        heartbeat_timeout_s: float = 15.0,
        poll_interval_s: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl_s <= 0 or heartbeat_timeout_s <= 0:
            raise ValueError("lease TTL and heartbeat timeout must be > 0")
        self.lease_ttl_s = float(lease_ttl_s)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.poll_interval_s = float(poll_interval_s)
        self._clock = clock
        self._lock = threading.RLock()
        #: notified when an upload arrives or an execution ends.
        self._changed = threading.Condition(self._lock)
        self._workers: dict[str, _Worker] = {}
        self._tasks: dict[str, _Task] = {}
        self._leases: dict[str, _Lease] = {}
        self._lease_ids = itertools.count(1)
        self.draining = False

    # -- worker lifecycle --------------------------------------------------------

    def register(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Admit one worker after the protocol/capability handshake."""
        check_protocol(payload)
        worker_id = payload["worker_id"]
        with self._lock:
            self.tick()
            if self.draining:
                raise ProtocolError(
                    503, "draining", "coordinator is draining; not admitting"
                )
            self._workers[worker_id] = _Worker(
                worker_id=worker_id,
                capabilities=tuple(payload["capabilities"]),
                last_seen=self._clock(),
            )
        obs.counter("service.dist.workers.registered").inc()
        return {
            "protocol": DIST_PROTOCOL_VERSION,
            "worker_id": worker_id,
            "capabilities": list(DIST_CAPABILITIES),
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "poll_interval_s": self.poll_interval_s,
        }

    def deregister(self, worker_id: str) -> dict[str, Any]:
        """Graceful worker exit: drop it and re-queue its leases."""
        with self._lock:
            worker = self._workers.pop(worker_id, None)
            if worker is None:
                raise self._unknown_worker(worker_id)
            self._expire_worker_leases(worker_id, reason="deregistered")
            return {"worker_id": worker_id, "completed": worker.completed}

    def heartbeat(self, worker_id: str) -> dict[str, Any]:
        with self._lock:
            self.tick()
            worker = self._workers.get(worker_id)
            if worker is None:
                raise self._unknown_worker(worker_id)
            worker.last_seen = self._clock()
            worker.heartbeats += 1
        obs.counter("service.dist.heartbeats").inc()
        return {"worker_id": worker_id, "draining": self.draining}

    # -- leases ------------------------------------------------------------------

    def acquire(self, worker_id: str) -> dict[str, Any]:
        """Grant the next pending cell to ``worker_id`` (or say idle)."""
        with self._lock:
            self.tick()
            worker = self._workers.get(worker_id)
            if worker is None:
                raise self._unknown_worker(worker_id)
            worker.last_seen = self._clock()
            idle = {
                "lease_id": None,
                "task_id": None,
                "ttl_s": self.lease_ttl_s,
                "retry_after_s": self.poll_interval_s,
                "draining": self.draining,
                "cell": None,
                "task": None,
            }
            if self.draining:
                return idle
            for task in self._tasks.values():
                if not task.pending:
                    continue
                index = task.pending.pop(0)
                attempt = task.attempts.get(index, 0) + 1
                task.attempts[index] = attempt
                lease = _Lease(
                    lease_id=f"lease-{next(self._lease_ids)}",
                    task_id=task.task_id,
                    cell_index=index,
                    worker_id=worker_id,
                    deadline=self._clock() + self.lease_ttl_s,
                    attempt=attempt,
                )
                self._leases[lease.lease_id] = lease
                task.leased[index] = lease.lease_id
                cell = task.cells[index]
                obs.counter("service.dist.leases.granted").inc()
                if attempt > 1:
                    obs.counter("service.dist.leases.retried").inc()
                return {
                    **idle,
                    "lease_id": lease.lease_id,
                    "task_id": task.task_id,
                    "cell": {
                        "index": cell.index,
                        "cell_id": cell.cell_id,
                        "config_fingerprint": cell.config_fingerprint,
                    },
                    "task": dict(task.descriptor),
                }
            return idle

    def renew(self, lease_id: str, worker_id: str) -> dict[str, Any]:
        """Extend one lease's deadline (long cells renew mid-flight)."""
        with self._lock:
            self.tick()
            lease = self._current_lease(lease_id, worker_id)
            lease.deadline = self._clock() + self.lease_ttl_s
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.last_seen = self._clock()
            return {"lease_id": lease_id, "ttl_s": self.lease_ttl_s}

    def complete(
        self, lease_id: str, worker_id: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        """Verify one completed cell and hand it to the waiting execution."""
        with self._lock:
            self.tick()
            lease = self._current_lease(lease_id, worker_id)
            task = self._tasks[lease.task_id]
            result = payload["result"]
            digest = result_sha256(result)
            if digest != payload["result_sha256"]:
                # Corrupt upload: drop the lease and put the cell back.
                self._requeue(lease)
                obs.counter("service.dist.completions.rejected").inc()
                raise ProtocolError(
                    400,
                    "result-hash-mismatch",
                    f"cell {lease.cell_index} upload hashes to {digest}, "
                    f"worker claimed {payload['result_sha256']}; cell "
                    "re-queued",
                    expected=payload["result_sha256"],
                    got=digest,
                )
            self._drop_lease(lease)
            if lease.cell_index in task.owed:
                task.owed.discard(lease.cell_index)
                task.arrivals.append(
                    (
                        task.cells[lease.cell_index],
                        result,
                        float(payload["elapsed_s"]),
                    )
                )
                self._changed.notify_all()
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.completed += 1
                worker.last_seen = self._clock()
            obs.counter("service.dist.leases.completed").inc()
            return {
                "lease_id": lease_id,
                "cell_index": lease.cell_index,
                "task_done": not task.owed,
            }

    def fail(
        self, lease_id: str, worker_id: str, message: str
    ) -> dict[str, Any]:
        """A worker could not run its cell; re-queue it for another try."""
        with self._lock:
            self.tick()
            lease = self._current_lease(lease_id, worker_id)
            self._requeue(lease)
            obs.counter("service.dist.leases.failed").inc()
            return {"lease_id": lease_id, "requeued": lease.cell_index}

    # -- the cell executor (called by run_sweep on a job thread) -----------------

    def execute(
        self,
        task: dict[str, Any],
        cells: Iterable[SweepCell],
        stop: Callable[[], bool],
    ) -> Iterator[Settled]:
        """Lease ``cells`` to workers; iterate their verified uploads.

        The cell executor a coordinator daemon passes to
        :func:`~repro.sweep.scheduler.run_sweep`, bound to ``task``: the
        preset descriptor workers expand (:func:`resolve_spec`).  One
        execution per sweep id is in flight at a time: a second one
        waits here, polling ``stop``, before it pulls any cell — and
        pulling is what drives ``run_sweep``'s ledger pass, so that pass
        sees everything the first execution appended.

        The cells are queued before this returns; iterate the result
        (``run_sweep`` always does), since the execution ends with the
        iteration.  It yields each accepted upload as it lands and polls
        ``stop`` between waits; when it ends — all cells in, stopped, or
        closed early — the execution's pending cells and leases are
        withdrawn, and uploads still in flight answer ``stale-lease``.
        A stop still yields every upload accepted before it.
        """
        entry = _Task(task_id=sweep_id(resolve_spec(task)), descriptor=dict(task))
        with self._lock:
            while entry.task_id in self._tasks:
                if stop():
                    return iter(())
                self._changed.wait(self.poll_interval_s)
            self._tasks[entry.task_id] = entry
        try:
            for cell in cells:
                entry.cells[cell.index] = cell
        except BaseException:
            self._withdraw(entry)
            raise
        with self._lock:
            entry.pending = list(entry.cells)
            entry.owed = set(entry.cells)
        return self._settle(entry, stop)

    def _settle(self, task: _Task, stop: Callable[[], bool]) -> Iterator[Settled]:
        try:
            while True:
                with self._lock:
                    self.tick()
                    if task.owed and not task.arrivals:
                        self._changed.wait(self.poll_interval_s)
                    arrived, task.arrivals = task.arrivals, []
                    finished = not task.owed
                yield from arrived
                if finished:
                    return
                if stop():
                    # Refuse further uploads, then hand over the ones
                    # accepted before that: the stop lands on a cell edge.
                    # The sweep id stays claimed until they are appended.
                    self._refuse(task)
                    yield from task.arrivals
                    return
        finally:
            self._withdraw(task)

    # -- liveness ----------------------------------------------------------------

    def tick(self) -> None:
        """Lazy expiry scan: evict silent workers, re-queue dead leases."""
        with self._lock:
            now = self._clock()
            for worker_id, worker in list(self._workers.items()):
                if now - worker.last_seen > self.heartbeat_timeout_s:
                    del self._workers[worker_id]
                    self._expire_worker_leases(worker_id, reason="evicted")
                    obs.counter("service.dist.workers.evicted").inc()
            for lease in list(self._leases.values()):
                if now > lease.deadline:
                    self._expire_lease(lease)

    def drain(self) -> None:
        """Stop granting leases; in-flight completions still merge."""
        with self._lock:
            self.draining = True

    def status(self) -> dict[str, Any]:
        """The operator view served at ``GET /v1/dist/status``."""
        with self._lock:
            self.tick()
            return {
                "protocol": DIST_PROTOCOL_VERSION,
                "draining": self.draining,
                "workers": [
                    {
                        "worker_id": worker.worker_id,
                        "completed": worker.completed,
                        "heartbeats": worker.heartbeats,
                    }
                    for worker in sorted(
                        self._workers.values(), key=lambda w: w.worker_id
                    )
                ],
                "tasks": [
                    {
                        "task_id": task.task_id,
                        "n_cells": len(task.cells),
                        "n_done": len(task.cells) - len(task.owed),
                        "n_pending": len(task.pending),
                        "n_leased": len(task.leased),
                    }
                    for task in self._tasks.values()
                ],
                "leases": len(self._leases),
            }

    # -- internals ---------------------------------------------------------------

    def _unknown_worker(self, worker_id: str) -> ProtocolError:
        return ProtocolError(
            404,
            "unknown-worker",
            f"worker {worker_id!r} is not registered (evicted or never "
            "registered); register again",
        )

    def _current_lease(self, lease_id: str, worker_id: str) -> _Lease:
        lease = self._leases.get(lease_id)
        if lease is None or lease.worker_id != worker_id:
            obs.counter("service.dist.completions.stale").inc()
            raise ProtocolError(
                409,
                "stale-lease",
                f"lease {lease_id} is not current for worker {worker_id!r} "
                "(expired, evicted, or completed elsewhere)",
            )
        return lease

    def _drop_lease(self, lease: _Lease) -> None:
        self._leases.pop(lease.lease_id, None)
        task = self._tasks.get(lease.task_id)
        if task is not None and task.leased.get(lease.cell_index) == lease.lease_id:
            del task.leased[lease.cell_index]

    def _requeue(self, lease: _Lease) -> None:
        """Drop ``lease`` and put its cell back at the front of the queue."""
        self._drop_lease(lease)
        task = self._tasks.get(lease.task_id)
        if task is not None and lease.cell_index in task.owed:
            task.pending.insert(0, lease.cell_index)

    def _expire_lease(self, lease: _Lease) -> None:
        self._requeue(lease)
        obs.counter("service.dist.leases.expired").inc()

    def _refuse(self, task: _Task) -> None:
        """Lease no more of ``task``'s cells; uploads for them are stale."""
        with self._lock:
            task.pending.clear()
            for lease_id in task.leased.values():
                self._leases.pop(lease_id, None)
            task.leased.clear()

    def _withdraw(self, task: _Task) -> None:
        """End one execution: refuse its cells, release its sweep id."""
        with self._lock:
            self._refuse(task)
            del self._tasks[task.task_id]
            self._changed.notify_all()

    def _expire_worker_leases(self, worker_id: str, *, reason: str) -> None:
        for lease in list(self._leases.values()):
            if lease.worker_id == worker_id:
                self._expire_lease(lease)
