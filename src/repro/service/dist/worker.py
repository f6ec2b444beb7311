"""The dist worker: lease loop, heartbeats, and retrying RPCs.

``ddoscovery dist worker --coordinator URL`` runs :func:`run_worker`:
register (protocol handshake), then loop — acquire a lease, re-expand
the task's preset locally, verify the spec and cell fingerprints, run
the cell through the ordinary :func:`repro.sweep.scheduler.run_cell`
path (sharded, cached), and upload the result with its canonical-bytes
sha256.

Robustness:

* every RPC goes through :class:`CoordinatorClient`, which retries
  transport failures with **exponential backoff + full jitter**
  (deterministically seeded per worker, so tests can pin the schedule);
* a background thread heartbeats on the coordinator-advised interval
  and renews the active lease mid-cell, so only a *dead* worker's lease
  ever expires;
* SIGTERM sets the stop event: the in-flight cell finishes and
  uploads, the worker deregisters, and the loop returns — a SIGKILL
  skips all of that and the coordinator's lease expiry re-dispatches
  the orphaned cell;
* a ``stale-lease`` answer to an upload (we were evicted mid-cell and
  the cell re-dispatched) is counted and dropped — cell results are
  deterministic, so whichever copy merged first is byte-identical.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable
from urllib.parse import urlsplit

from repro import obs
from repro.service.dist.protocol import (
    DIST_CAPABILITIES,
    DIST_PROTOCOL_VERSION,
    ProtocolError,
    resolve_spec,
    result_sha256,
)

Log = Callable[[str], None]


def _silent(_: str) -> None:
    return None


class CoordinatorClient:
    """Blocking JSON-over-HTTP client with bounded retry + jitter.

    Transport failures (connection refused/reset, timeouts) retry up to
    ``retries`` times with exponential backoff and full jitter; HTTP
    error documents raise :class:`ProtocolError` immediately — a
    structured protocol answer is an answer, not an outage.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout_s: float = 10.0,
        retries: int = 5,
        backoff_base_s: float = 0.1,
        backoff_cap_s: float = 2.0,
        rng: random.Random | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        split = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"dist transport is plain http, got {base_url!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep

    def backoff_s(self, attempt: int) -> float:
        """Full-jitter exponential backoff for retry ``attempt`` (0-based)."""
        ceiling = min(self.backoff_cap_s, self.backoff_base_s * (2**attempt))
        return self._rng.uniform(0.0, ceiling)

    def request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                return self._exchange(method, path, payload)
            except ProtocolError:
                raise
            except (OSError, http.client.HTTPException, ValueError) as error:
                last_error = error
                obs.counter("service.dist.rpc.retries").inc()
                if attempt < self.retries:
                    self._sleep(self.backoff_s(attempt))
        raise ConnectionError(
            f"coordinator {self.host}:{self.port} unreachable after "
            f"{self.retries + 1} attempts: {last_error}"
        )

    def get(self, path: str) -> dict[str, Any]:
        return self.request("GET", path)

    def post(self, path: str, payload: dict[str, Any]) -> dict[str, Any]:
        return self.request("POST", path, payload)

    def _exchange(
        self, method: str, path: str, payload: dict[str, Any] | None
    ) -> dict[str, Any]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            body = None if payload is None else json.dumps(payload)
            headers = {"Content-Type": "application/json"}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            document = json.loads(raw.decode("utf-8")) if raw else {}
        finally:
            connection.close()
        if response.status >= 400:
            error = (
                document.get("error", {}) if isinstance(document, dict) else {}
            )
            raise ProtocolError(
                response.status,
                error.get("code", "http-error"),
                error.get("message", f"HTTP {response.status} from {path}"),
                **{
                    key: value
                    for key, value in error.items()
                    if key not in ("status", "message", "code")
                },
            )
        return document if isinstance(document, dict) else {}


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one dist worker can tune."""

    coordinator: str
    worker_id: str | None = None
    #: shard count per cell simulation (``effective_jobs`` semantics).
    jobs: int | None = 1
    cache: bool | None = None
    cache_dir: str | Path | None = None
    #: fall back when the coordinator does not advise an interval.
    poll_interval_s: float = 0.2
    #: stop after this many completed cells (smoke/test harnesses).
    max_cells: int | None = None
    #: stop after this long with no lease granted (smoke harnesses);
    #: ``None`` polls forever until stopped.
    idle_exit_s: float | None = None


@dataclass
class WorkerSummary:
    """What one worker loop did (returned by :func:`run_worker`)."""

    worker_id: str
    completed: int = 0
    failed: int = 0
    stale: int = 0
    heartbeats: int = 0
    cells: list[int] = field(default_factory=list)


def _stop_aware_sleep(seconds: float, stop: threading.Event) -> None:
    deadline = time.monotonic() + seconds
    while not stop.is_set():
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        stop.wait(min(0.05, remaining))


def run_worker(
    config: WorkerConfig,
    *,
    log: Log = _silent,
    stop: threading.Event | None = None,
    install_signal_handlers: bool = False,
    client: CoordinatorClient | None = None,
) -> WorkerSummary:
    """Run one worker until stopped, drained, or its budget is spent.

    Raises :class:`ProtocolError` if registration is rejected (protocol
    mismatch, coordinator draining) — callers surface the structured
    error rather than retrying forever against an incompatible peer.
    """
    stop = stop if stop is not None else threading.Event()
    worker_id = config.worker_id or f"worker-{uuid.uuid4().hex[:8]}"
    if client is None:
        client = CoordinatorClient(
            config.coordinator, rng=random.Random(worker_id)
        )
    summary = WorkerSummary(worker_id=worker_id)

    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, lambda *_: stop.set())
            except ValueError:  # pragma: no cover - non-main thread
                pass

    admission = client.post(
        "/v1/dist/workers",
        {
            "protocol": DIST_PROTOCOL_VERSION,
            "worker_id": worker_id,
            "capabilities": list(DIST_CAPABILITIES),
        },
    )
    heartbeat_interval = float(
        admission.get("heartbeat_interval_s", 5.0)
    )
    poll_interval = float(
        admission.get("poll_interval_s", config.poll_interval_s)
    )
    log(
        f"{worker_id}: registered with {client.host}:{client.port} "
        f"(protocol {admission.get('protocol')}, "
        f"lease ttl {admission.get('lease_ttl_s')}s)"
    )

    # One background thread keeps us alive: heartbeat every advised
    # interval, and renew whichever lease the main loop is executing.
    current_lease: dict[str, str | None] = {"lease_id": None}
    lease_lock = threading.Lock()

    def keepalive() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                client.post(
                    f"/v1/dist/workers/{worker_id}/heartbeat", {}
                )
                summary.heartbeats += 1
                with lease_lock:
                    lease_id = current_lease["lease_id"]
                if lease_id is not None:
                    client.post(
                        f"/v1/dist/leases/{lease_id}/renew",
                        {"worker_id": worker_id},
                    )
            except (ProtocolError, ConnectionError):
                # The main loop will hit the same condition and decide;
                # a keepalive must never take the worker down.
                pass

    keepalive_thread = threading.Thread(
        target=keepalive, name=f"dist-keepalive-{worker_id}", daemon=True
    )
    keepalive_thread.start()

    idle_since: float | None = None
    try:
        while not stop.is_set():
            if (
                config.max_cells is not None
                and summary.completed >= config.max_cells
            ):
                break
            try:
                lease = client.post(
                    "/v1/dist/leases", {"worker_id": worker_id}
                )
            except ProtocolError as error:
                if error.code != "unknown-worker":
                    raise
                # Evicted (missed heartbeats — e.g. the host slept);
                # re-admission goes through the full handshake again.
                log(f"{worker_id}: evicted; re-registering")
                client.post(
                    "/v1/dist/workers",
                    {
                        "protocol": DIST_PROTOCOL_VERSION,
                        "worker_id": worker_id,
                        "capabilities": list(DIST_CAPABILITIES),
                    },
                )
                continue
            if lease.get("lease_id") is None:
                if lease.get("draining"):
                    log(f"{worker_id}: coordinator draining; exiting")
                    break
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if (
                    config.idle_exit_s is not None
                    and now - idle_since >= config.idle_exit_s
                ):
                    log(f"{worker_id}: idle {config.idle_exit_s:g}s; exiting")
                    break
                _stop_aware_sleep(
                    float(lease.get("retry_after_s", poll_interval)), stop
                )
                continue
            idle_since = None
            _execute_lease(
                client, config, worker_id, lease, summary,
                current_lease=current_lease,
                lease_lock=lease_lock,
                log=log,
            )
    finally:
        stop.set()
        try:
            client.post(
                f"/v1/dist/workers/{worker_id}/deregister", {}
            )
        except (ProtocolError, ConnectionError):
            pass
        keepalive_thread.join(timeout=2 * heartbeat_interval + 1)
    log(
        f"{worker_id}: done — {summary.completed} cells completed, "
        f"{summary.failed} failed, {summary.stale} stale"
    )
    return summary


def _execute_lease(
    client: CoordinatorClient,
    config: WorkerConfig,
    worker_id: str,
    lease: dict[str, Any],
    summary: WorkerSummary,
    *,
    current_lease: dict[str, str | None],
    lease_lock: threading.Lock,
    log: Log,
) -> None:
    """Run one leased cell end-to-end and upload (or fail) it."""
    # Imported per lease so that a wrapper bound to the module attribute
    # (scripts/dist_smoke.py's stall) runs here as it does inline.
    from repro.sweep.scheduler import run_cell
    from repro.sweep.spec import expand

    lease_id = lease["lease_id"]
    cell_ref = lease["cell"]
    with lease_lock:
        current_lease["lease_id"] = lease_id
    try:
        try:
            spec = resolve_spec(lease["task"])
            cells = {cell.index: cell for cell in expand(spec)}
            cell = cells.get(cell_ref["index"])
            if (
                cell is None
                or cell.config_fingerprint != cell_ref["config_fingerprint"]
            ):
                raise ProtocolError(
                    409,
                    "spec-mismatch",
                    f"cell {cell_ref['index']} does not match this "
                    "worker's expansion of the preset",
                )
        except ProtocolError as error:
            summary.failed += 1
            log(f"{worker_id}: lease {lease_id} refused: {error.message}")
            client.post(
                f"/v1/dist/leases/{lease_id}/fail",
                {"worker_id": worker_id, "message": error.message},
            )
            return
        started = time.perf_counter()
        with obs.span("service.dist.cell"):
            result = run_cell(
                cell,
                jobs=config.jobs,
                cache=config.cache,
                cache_dir=config.cache_dir,
            )
        elapsed = time.perf_counter() - started
        document = result.to_dict()
        try:
            client.post(
                f"/v1/dist/leases/{lease_id}/complete",
                {
                    "worker_id": worker_id,
                    "result": document,
                    "result_sha256": result_sha256(document),
                    "elapsed_s": elapsed,
                },
            )
        except ProtocolError as error:
            if error.code == "stale-lease":
                # We were evicted (or expired) mid-cell and the cell was
                # re-dispatched; results are deterministic, so dropping
                # this copy cannot change any byte of the report.
                summary.stale += 1
                obs.counter("service.dist.cells.stale").inc()
                log(
                    f"{worker_id}: cell {cell.index} finished under a "
                    "stale lease; dropped"
                )
                return
            raise
        summary.completed += 1
        summary.cells.append(cell.index)
        obs.counter("service.dist.cells.executed").inc()
        log(
            f"{worker_id}: cell {cell.index} [{cell.describe()}] "
            f"completed in {elapsed:.1f}s"
        )
    finally:
        with lease_lock:
            current_lease["lease_id"] = None
