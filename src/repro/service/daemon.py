"""The study service daemon: socket lifecycle and graceful shutdown.

:func:`serve` binds the listening socket, starts the job workers, and
runs until something asks it to stop — SIGTERM/SIGINT (wired through
``loop.add_signal_handler``), or :meth:`ServiceHandle.request_stop` from
a test.  Shutdown is a **drain**: the listener closes (no new
connections), in-flight HTTP responses finish, queued jobs cancel,
running jobs get up to ``drain_timeout_s`` to complete, and only then
does the coroutine return.  Combined with the content-addressed cache's
atomic writes and the sweep ledger's append-only records, a SIGTERM at
any point leaves on-disk state a fresh daemon (or the batch CLI) can
pick up.

``ddoscovery serve`` is the CLI wrapper (:func:`run_service`); tests
call :func:`serve` directly with ``port=0`` and read the bound port off
the handle.
"""

from __future__ import annotations

import asyncio
import signal
import socket
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import obs
from repro.service.app import App
from repro.service.hotcache import HotArtifactCache
from repro.service.http import BadRequest, Response, read_request, write_response
from repro.service.jobs import JobManager
from repro.service.runners import EXECUTION_MODES, ServiceSettings, make_runner
from repro.util.parallel import effective_jobs, shutdown_pool, warm_pool

Log = Callable[[str], None]


def _silent(_: str) -> None:
    return None


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``ddoscovery serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8350
    #: concurrent jobs (each still shards its own simulation by ``jobs``).
    workers: int = 1
    #: bounded admission: queued + running jobs the daemon will hold.
    queue_size: int = 16
    #: per-job wall-clock budget; ``None`` means unbounded.
    job_timeout_s: float | None = None
    #: grace period for running jobs during SIGTERM drain.
    drain_timeout_s: float = 30.0
    #: where job bodies execute: "process" dispatches them onto the
    #: persistent multi-process warm pool (the production default);
    #: "thread" runs them on daemon threads (PR 5 behaviour).
    execution: str = "process"
    #: slow-loris guard: close connections whose request has not fully
    #: arrived within this many seconds (answered 408 when possible).
    request_timeout_s: float = 30.0
    #: shard count per simulation (0 = all cores).
    jobs: int | None = 1
    cache: bool | None = None
    cache_dir: str | Path | None = None
    #: "standalone" serves jobs locally; "coordinator" additionally
    #: activates the ``/v1/dist/*`` tier and leases the cells of
    #: sweep/whatif jobs to registered workers.  (The worker role never
    #: reaches :func:`serve` — ``ddoscovery serve --role worker`` runs
    #: :func:`repro.service.dist.run_worker`.)
    role: str = "standalone"
    #: dist lease lifetime; an expired lease re-queues its cell.
    lease_ttl_s: float = 60.0
    #: evict workers silent longer than this (their leases re-queue).
    heartbeat_timeout_s: float = 15.0
    #: where sweep and what-if ledgers live, in either role (``None``:
    #: ``cache_dir``; the CLI sets it to ``--cache-dir``).
    sweep_dir: str | Path | None = None


@dataclass
class ServiceHandle:
    """What :func:`serve` exposes while running (mainly for tests)."""

    config: ServiceConfig
    manager: JobManager
    port: int
    stopping: asyncio.Event = field(default_factory=asyncio.Event)

    def request_stop(self) -> None:
        """Begin the graceful drain (idempotent, signal-handler safe)."""
        self.stopping.set()


async def serve(
    config: ServiceConfig,
    *,
    log: Log = _silent,
    ready: Callable[[ServiceHandle], None] | None = None,
    install_signal_handlers: bool = True,
) -> None:
    """Run the daemon until stopped, then drain and return."""
    if config.execution not in EXECUTION_MODES:
        raise ValueError(
            f"unknown execution mode {config.execution!r}; "
            f"choose from {EXECUTION_MODES}"
        )
    if config.role not in ("standalone", "coordinator"):
        raise ValueError(
            f"unknown service role {config.role!r}; "
            "choose from ('standalone', 'coordinator')"
        )
    settings = ServiceSettings(
        jobs=config.jobs,
        cache=config.cache,
        cache_dir=config.cache_dir,
        execution=config.execution,
        pool_workers=max(1, config.workers),
        sweep_dir=config.sweep_dir,
    )
    coordinator = None
    if config.role == "coordinator":
        from repro.service.dist import DistCoordinator

        coordinator = DistCoordinator(
            lease_ttl_s=config.lease_ttl_s,
            heartbeat_timeout_s=config.heartbeat_timeout_s,
        )
    hot_cache = HotArtifactCache()
    if coordinator is not None:
        runner = make_runner(settings, coordinator)
    else:
        runner = make_runner(settings)
    manager = JobManager(
        runner,
        workers=config.workers,
        queue_size=config.queue_size,
        default_timeout_s=config.job_timeout_s,
        on_done=hot_cache.warm_job,
    )
    manager.start()
    # Warm the persistent worker pool up front: jobs submitted over the
    # daemon's lifetime then reuse already-forked processes instead of
    # paying startup per request.  In "process" mode the pool runs whole
    # job bodies; in "thread" mode it is only needed for sharded
    # simulations.
    if config.execution == "process":
        warm_pool(max(1, config.workers))
        log(f"warmed job worker pool: {max(1, config.workers)} processes")
    else:
        resolved_jobs = effective_jobs(config.jobs)
        if resolved_jobs > 1:
            warm_pool(resolved_jobs)
            log(f"warmed shard worker pool: {resolved_jobs} processes")
    app = App(
        manager,
        hot_cache=hot_cache,
        execution=config.execution,
        coordinator=coordinator,
    )

    async def handle_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader), timeout=config.request_timeout_s
                )
            except BadRequest as error:
                await write_response(writer, Response.error(400, str(error)))
                return
            except TimeoutError:
                # Slow-loris guard: the request never fully arrived.
                obs.counter("service.http.timeouts").inc()
                await write_response(
                    writer,
                    Response.error(
                        408,
                        "request not received within "
                        f"{config.request_timeout_s:g}s",
                    ),
                )
                return
            if request is None:
                return
            response = app.handle(request)
            await write_response(writer, response)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    server = await asyncio.start_server(
        handle_connection, host=config.host, port=config.port
    )
    sockets = server.sockets or []
    port = sockets[0].getsockname()[1] if sockets else config.port
    handle = ServiceHandle(config=config, manager=manager, port=port)

    loop = asyncio.get_running_loop()
    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, handle.request_stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or unsupported platform

    log(f"listening on http://{config.host}:{port}")
    log(
        f"workers {manager.workers} ({config.execution}), "
        f"queue {manager.queue_size}, shards per job {config.jobs}"
    )
    if coordinator is not None:
        log(
            f"dist coordinator active: lease ttl {config.lease_ttl_s:g}s, "
            f"heartbeat timeout {config.heartbeat_timeout_s:g}s"
        )
    obs.gauge("service.port").set(port)
    if ready is not None:
        ready(handle)

    try:
        await handle.stopping.wait()
    finally:
        log("draining: no new jobs, waiting for running work")
        if coordinator is not None:
            # New lease acquires answer "draining"; workers finish their
            # current cell, upload it, and exit on the next idle poll.
            coordinator.drain()
        server.close()
        await server.wait_closed()
        await manager.drain(timeout=config.drain_timeout_s)
        shutdown_pool()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        counts = manager.counts()
        log(f"drained: {counts}")


def run_service(config: ServiceConfig, *, log: Log = _silent) -> int:
    """Blocking entry point for ``ddoscovery serve``; returns exit code."""
    try:
        asyncio.run(serve(config, log=log))
    except OSError as error:  # port in use, bad interface, ...
        log(f"cannot listen on {config.host}:{config.port}: {error}")
        return 1
    return 0


def free_port(host: str = "127.0.0.1") -> int:
    """An ephemeral port (for smoke scripts that need to know it early)."""
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]
