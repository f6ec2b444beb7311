"""``repro.service``: the study service daemon.

``ddoscovery serve`` turns studies, sweeps, and conformance runs into
managed jobs behind a small versioned REST surface::

    POST /v1/jobs                          submit {"kind": "study", ...}
    GET  /v1/jobs/{id}                     poll status
    GET  /v1/jobs/{id}/artifacts/{name}    fetch canonical artifact JSON
    GET  /v1/health, /v1/metrics, /v1/artifacts

Identical submissions coalesce onto one job (content-fingerprint keys),
admission is bounded, cancellation is cooperative, and SIGTERM drains
gracefully — see :mod:`repro.service.jobs` for the execution contracts
and ``docs/SERVICE.md`` for the operator view.  Artifact payloads come
from the same canonical encoder as the CLI and library export paths, so
bytes fetched over HTTP are bit-identical to batch output.  The whole
surface is described by ``GET /v1/openapi.json``, generated from the
same route table the dispatcher runs on (:mod:`repro.service.openapi`).

The distributed tier (``docs/DISTRIBUTED.md``): a ``--role
coordinator`` daemon additionally mounts ``/v1/dist/*`` and leases the
cells of sweep/what-if jobs to ``--role worker`` processes
(:mod:`repro.service.dist`); ``run_sweep`` appends their results to the
ordinary resumable ledger — byte-identical to a serial run for any
worker count.

The load tier (``docs/SERVICE.md``): job bodies run on the persistent
multi-process warm pool by default (``execution="process"``), artifact
responses carry content-fingerprint ``ETag`` headers honoured by
``If-None-Match`` conditional GETs (:mod:`repro.service.hotcache`),
large bodies stream in chunks, and ``ddoscovery bench serve``
(:mod:`repro.service.bench`) load-tests the whole stack — including the
thundering-herd coalescing invariant — under concurrent clients.
"""

from repro.service.app import ROUTES, App, Route
from repro.service.bench import BenchConfig, run_bench
from repro.service.daemon import (
    ServiceConfig,
    ServiceHandle,
    free_port,
    run_service,
    serve,
)
from repro.service.dist import (
    DIST_CAPABILITIES,
    DIST_PROTOCOL_VERSION,
    CoordinatorClient,
    DistCoordinator,
    ProtocolError,
    WorkerConfig,
    WorkerSummary,
    run_worker,
)
from repro.service.openapi import openapi_document
from repro.service.hotcache import HotArtifactCache
from repro.service.http import etag_matches, make_etag
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TIMEOUT,
    Draining,
    Job,
    JobCancelled,
    JobManager,
    JobResult,
    QueueFull,
)
from repro.service.runners import (
    EXECUTION_MODES,
    ProcessJob,
    ServiceSettings,
    make_runner,
    parse_submission,
    study_config_from_payload,
)

__all__ = [
    "CANCELLED",
    "DIST_CAPABILITIES",
    "DIST_PROTOCOL_VERSION",
    "DONE",
    "EXECUTION_MODES",
    "FAILED",
    "QUEUED",
    "ROUTES",
    "RUNNING",
    "TIMEOUT",
    "App",
    "BenchConfig",
    "CoordinatorClient",
    "DistCoordinator",
    "Draining",
    "HotArtifactCache",
    "Job",
    "JobCancelled",
    "JobManager",
    "JobResult",
    "ProcessJob",
    "ProtocolError",
    "QueueFull",
    "Route",
    "ServiceConfig",
    "ServiceHandle",
    "ServiceSettings",
    "WorkerConfig",
    "WorkerSummary",
    "etag_matches",
    "free_port",
    "make_etag",
    "make_runner",
    "openapi_document",
    "parse_submission",
    "run_bench",
    "run_service",
    "run_worker",
    "serve",
    "study_config_from_payload",
]
