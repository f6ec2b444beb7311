"""The REST surface: a declarative route table over the job manager.

Every endpoint is one :class:`Route` row in :data:`ROUTES` — method,
path template, handler, and schema references — and the same table
drives **both** request dispatch and the machine-readable API
description served at ``GET /v1/openapi.json``
(:func:`repro.service.openapi.openapi_document`), so a mounted route
can never be missing from the published contract (pinned by the
round-trip test in ``tests/test_openapi.py``).

========================================  =====================================
``GET  /v1/health``                       liveness + job counts + queue state
``GET  /v1/metrics``                      the daemon's metrics registry summary
``GET  /v1/openapi.json``                 this API, as an OpenAPI 3 document
``GET  /v1/artifacts``                    the artifact registry listing
``POST /v1/jobs``                         submit (202) or coalesce (200) a job
``GET  /v1/jobs``                         all jobs, submission order
``GET  /v1/jobs/{id}``                    one job document
``POST /v1/jobs/{id}/cancel``             request cancellation (also DELETE)
``GET  /v1/jobs/{id}/artifacts``          names a finished job produced
``GET  /v1/jobs/{id}/artifacts/{name}``   the canonical artifact JSON bytes
``GET  /v1/dist/protocol``                dist version/capability handshake
``POST /v1/dist/workers``                 register a worker (handshake)
``POST /v1/dist/workers/{id}/heartbeat``  worker liveness
``POST /v1/dist/workers/{id}/deregister`` graceful worker exit
``POST /v1/dist/leases``                  acquire the next cell lease
``POST /v1/dist/leases/{id}/complete``    content-addressed result upload
``POST /v1/dist/leases/{id}/fail``        refuse a cell (re-queued)
``GET  /v1/dist/status``                  coordinator overview
========================================  =====================================

Error shape is uniform — ``{"error": {"status", "message", ...}}`` with
an optional machine-readable ``code`` (dist protocol errors always
carry one) — and artifact bytes are returned verbatim from the job
result, never re-encoded, so the service can only serve what the
canonical encoder produced.

Artifact responses carry a content-fingerprint ``ETag`` (hashed once,
beside the bytes, when the job's :class:`~repro.service.jobs.JobResult`
is made) and honour ``If-None-Match``: a matching conditional GET
answers ``304 Not Modified`` with zero body bytes.  Because artifact
bytes are canonical and timestamp-free, the tags are also marked
``Cache-Control: immutable``.

The ``/v1/dist/*`` routes are always mounted (and always described);
on a daemon that is not running as a coordinator they answer a
structured 409 ``not-coordinator`` error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.service.dist.protocol import (
    ProtocolError,
    protocol_descriptor,
    validate_message,
)
from repro.service.http import (
    BadRequest,
    Request,
    Response,
    etag_matches,
)
from repro.service.jobs import DONE, Draining, JobManager, QueueFull
from repro.service.runners import parse_submission


@dataclass(frozen=True)
class Route:
    """One row of the route table: dispatch + documentation in one place."""

    method: str
    #: path template; ``{name}`` segments capture path parameters which
    #: are passed to the handler as keyword arguments.
    pattern: str
    #: name of the :class:`App` method handling the request.
    handler: str
    summary: str
    #: ``components.schemas`` names for the openapi document.
    request_schema: str | None = None
    response_schema: str | None = None


ROUTES: tuple[Route, ...] = (
    Route("GET", "/v1/health", "_health", "Liveness, queue state, job counts"),
    Route("GET", "/v1/metrics", "_metrics", "Metrics registry summary"),
    Route(
        "GET",
        "/v1/openapi.json",
        "_openapi",
        "This API as an OpenAPI 3 document (canonical bytes)",
    ),
    Route("GET", "/v1/artifacts", "_registry", "Artifact registry listing"),
    Route("POST", "/v1/jobs", "_submit", "Submit (or coalesce onto) a job"),
    Route("GET", "/v1/jobs", "_jobs", "All jobs in submission order"),
    Route("GET", "/v1/jobs/{job_id}", "_job_get", "One job document"),
    Route(
        "DELETE",
        "/v1/jobs/{job_id}",
        "_job_cancel",
        "Cancel a job (alias of POST .../cancel)",
    ),
    Route(
        "POST",
        "/v1/jobs/{job_id}/cancel",
        "_job_cancel",
        "Request cooperative cancellation",
    ),
    Route(
        "GET",
        "/v1/jobs/{job_id}/artifacts",
        "_job_artifacts",
        "Artifact names a finished job produced",
    ),
    Route(
        "GET",
        "/v1/jobs/{job_id}/artifacts/{name}",
        "_job_artifact",
        "Canonical artifact JSON bytes (ETag / If-None-Match)",
    ),
    Route(
        "GET",
        "/v1/dist/protocol",
        "_dist_protocol",
        "Dist protocol version + capability handshake document",
    ),
    Route(
        "POST",
        "/v1/dist/workers",
        "_dist_register",
        "Register a worker (rejects protocol mismatches)",
        request_schema="dist.register_request",
        response_schema="dist.register_response",
    ),
    Route(
        "POST",
        "/v1/dist/workers/{worker_id}/heartbeat",
        "_dist_heartbeat",
        "Worker liveness heartbeat",
        response_schema="dist.heartbeat_response",
    ),
    Route(
        "POST",
        "/v1/dist/workers/{worker_id}/deregister",
        "_dist_deregister",
        "Graceful worker exit; its leases re-queue",
    ),
    Route(
        "POST",
        "/v1/dist/leases",
        "_dist_acquire",
        "Acquire the next pending cell lease (or an idle answer)",
        request_schema="dist.lease_request",
        response_schema="dist.lease_response",
    ),
    Route(
        "POST",
        "/v1/dist/leases/{lease_id}/complete",
        "_dist_complete",
        "Upload one completed cell (content-addressed, verified)",
        request_schema="dist.complete_request",
    ),
    Route(
        "POST",
        "/v1/dist/leases/{lease_id}/fail",
        "_dist_fail",
        "Refuse a cell this worker cannot run; it re-queues",
        request_schema="dist.fail_request",
    ),
    Route(
        "GET",
        "/v1/dist/status",
        "_dist_status",
        "Coordinator overview: workers, tasks, leases",
    ),
)


def _match(pattern: str, parts: list[str]) -> dict[str, str] | None:
    """Match path segments against a template; returns captured params."""
    template = [part for part in pattern.split("/") if part]
    if len(template) != len(parts):
        return None
    params: dict[str, str] = {}
    for expected, actual in zip(template, parts):
        if expected.startswith("{") and expected.endswith("}"):
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params


class App:
    """Dispatch parsed requests through :data:`ROUTES`."""

    def __init__(
        self,
        manager: JobManager,
        *,
        execution: str,
        coordinator: Any | None = None,
    ) -> None:
        self.manager = manager
        self.execution = execution
        self.coordinator = coordinator
        self._openapi_bytes: bytes | None = None

    def handle(self, request: Request) -> Response:
        """Route one request (pure function of request + manager state)."""
        obs.counter("service.http.requests", method=request.method).inc()
        parts = [part for part in request.path.split("/") if part]
        try:
            return self._route(request, parts)
        except ProtocolError as error:
            return Response.error(
                error.status, error.message, **error.document()
            )
        except BadRequest as error:
            return Response.error(400, str(error))
        except Exception as error:  # noqa: BLE001 - last-resort boundary
            obs.counter("service.http.errors").inc()
            return Response.error(500, f"{type(error).__name__}: {error}")

    # -- routing -----------------------------------------------------------------

    def _route(self, request: Request, parts: list[str]) -> Response:
        allowed: list[str] = []
        for route in ROUTES:
            params = _match(route.pattern, parts)
            if params is None:
                continue
            if route.method != request.method:
                allowed.append(route.method)
                continue
            handler = getattr(self, route.handler)
            return handler(request, **params)
        if allowed:
            return Response.error(
                405,
                f"{request.method} not allowed here "
                f"(use {' or '.join(sorted(set(allowed)))})",
            )
        return Response.error(404, f"no such path: {request.path}")

    # -- core handlers -----------------------------------------------------------

    def _health(self, request: Request) -> Response:
        manager = self.manager
        document = {
            "status": "draining" if manager.draining else "ok",
            "workers": manager.workers,
            "execution": self.execution,
            "queue_size": manager.queue_size,
            "jobs": manager.counts(),
            "role": "coordinator" if self.coordinator is not None else "standalone",
        }
        return Response.json(document)

    def _metrics(self, request: Request) -> Response:
        return Response.json(obs.registry().summary())

    def _openapi(self, request: Request) -> Response:
        from repro.core.artifacts import artifact_json_bytes
        from repro.service.openapi import openapi_document

        if self._openapi_bytes is None:
            # The document is a pure function of the route table and the
            # schema registries, so one canonical encode serves forever.
            self._openapi_bytes = artifact_json_bytes(
                openapi_document(ROUTES)
            )
        return Response(status=200, body=self._openapi_bytes)

    def _registry(self, request: Request) -> Response:
        from repro.core.artifacts import registry_listing

        return Response.json({"artifacts": registry_listing()})

    def _jobs(self, request: Request) -> Response:
        return Response.json(
            {"jobs": [job.to_dict() for job in self.manager.jobs()]}
        )

    def _submit(self, request: Request) -> Response:
        body = request.json()
        try:
            kind, key, payload = parse_submission(body)
        except (ValueError, KeyError) as error:
            message = error.args[0] if error.args else str(error)
            return Response.error(400, str(message))
        try:
            job, coalesced = self.manager.submit(kind, key, payload)
        except Draining as error:
            return Response.error(503, str(error))
        except QueueFull as error:
            return Response.error(503, str(error))
        document: dict[str, Any] = job.to_dict()
        document["coalesced"] = coalesced
        return Response.json(document, status=200 if coalesced else 202)

    def _job_get(self, request: Request, job_id: str) -> Response:
        job = self.manager.get(job_id)
        if job is None:
            return Response.error(404, f"no such job: {job_id}")
        return Response.json(job.to_dict())

    def _job_cancel(self, request: Request, job_id: str) -> Response:
        job = self.manager.cancel(job_id)
        if job is None:
            return Response.error(404, f"no such job: {job_id}")
        return Response.json(job.to_dict())

    def _finished_job(self, job_id: str):
        job = self.manager.get(job_id)
        if job is None:
            return None, Response.error(404, f"no such job: {job_id}")
        if job.status != DONE or job.result is None:
            return None, Response.error(
                409, f"job {job_id} is {job.status}; artifacts need done"
            )
        return job, None

    def _job_artifacts(self, request: Request, job_id: str) -> Response:
        job, error = self._finished_job(job_id)
        if error is not None:
            return error
        return Response.json(
            {"job": job_id, "artifacts": sorted(job.result.artifacts)}
        )

    def _job_artifact(
        self, request: Request, job_id: str, name: str
    ) -> Response:
        job, error = self._finished_job(job_id)
        if error is not None:
            return error
        body = job.result.artifacts.get(name)
        if body is None:
            return Response.error(
                404,
                f"job {job_id} has no artifact {name!r}; "
                f"available: {sorted(job.result.artifacts)}",
            )
        etag = job.result.etags[name]
        conditional = request.headers.get("if-none-match")
        if conditional is not None and etag_matches(conditional, etag):
            obs.counter("service.artifacts.not_modified").inc()
            return Response.not_modified(etag)
        obs.counter("service.artifacts.served").inc()
        return Response(
            status=200,
            body=body,
            headers={
                "ETag": etag,
                "Cache-Control": "max-age=31536000, immutable",
            },
        )

    # -- dist handlers -----------------------------------------------------------

    def _dist(self):
        if self.coordinator is None:
            raise ProtocolError(
                409,
                "not-coordinator",
                "this daemon is not a dist coordinator; start it with "
                "'ddoscovery serve --role coordinator'",
            )
        return self.coordinator

    def _dist_protocol(self, request: Request) -> Response:
        return Response.json(protocol_descriptor())

    def _dist_register(self, request: Request) -> Response:
        coordinator = self._dist()
        payload = validate_message("register_request", request.json())
        return Response.json(coordinator.register(payload))

    def _dist_heartbeat(self, request: Request, worker_id: str) -> Response:
        coordinator = self._dist()
        return Response.json(coordinator.heartbeat(worker_id))

    def _dist_deregister(self, request: Request, worker_id: str) -> Response:
        coordinator = self._dist()
        return Response.json(coordinator.deregister(worker_id))

    def _dist_acquire(self, request: Request) -> Response:
        coordinator = self._dist()
        payload = validate_message("lease_request", request.json())
        return Response.json(coordinator.acquire(payload["worker_id"]))

    def _dist_complete(self, request: Request, lease_id: str) -> Response:
        coordinator = self._dist()
        payload = validate_message("complete_request", request.json())
        return Response.json(
            coordinator.complete(lease_id, payload["worker_id"], payload)
        )

    def _dist_fail(self, request: Request, lease_id: str) -> Response:
        coordinator = self._dist()
        payload = validate_message("fail_request", request.json())
        return Response.json(
            coordinator.fail(lease_id, payload["worker_id"], payload["message"])
        )

    def _dist_status(self, request: Request) -> Response:
        coordinator = self._dist()
        return Response.json(coordinator.status())
