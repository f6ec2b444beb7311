"""``repro.service.dist``: the coordinator–worker distribution tier.

On a coordinator daemon (``ddoscovery serve --role coordinator``) sweep
and what-if jobs run :func:`repro.sweep.scheduler.run_sweep` with the
:class:`DistCoordinator` as their cell executor: the cells the ledger
does not hold become **cell leases** dispatched to worker processes
(``ddoscovery dist worker``) over the versioned ``/v1/dist/*`` wire
protocol:

* registration + heartbeat with an explicit protocol/capability
  handshake (:data:`~repro.service.dist.protocol.DIST_PROTOCOL_VERSION`;
  mismatches are rejected at registration with a structured error),
* lease acquire / renew / complete with per-lease timeouts — an expired
  lease returns its cell to the queue for re-dispatch,
* content-addressed result upload: each completed cell ships the sha256
  of its canonical JSON encoding and the coordinator re-encodes and
  verifies before handing it back.

``run_sweep`` appends every accepted upload to the ordinary resumable
JSONL sweep ledger — it is the ledger's only writer — and every report
is still built from the ledger alone, which is what makes distributed
output **byte-identical** to a serial run for any worker count,
topology, or failure history.  See ``docs/DISTRIBUTED.md``.
"""

from repro.service.dist.coordinator import DistCoordinator
from repro.service.dist.protocol import (
    DIST_CAPABILITIES,
    DIST_PROTOCOL_VERSION,
    DIST_SCHEMAS,
    ProtocolError,
    protocol_descriptor,
    resolve_spec,
    result_sha256,
    validate_message,
)
from repro.service.dist.worker import (
    CoordinatorClient,
    WorkerConfig,
    WorkerSummary,
    run_worker,
)

__all__ = [
    "DIST_CAPABILITIES",
    "DIST_PROTOCOL_VERSION",
    "DIST_SCHEMAS",
    "CoordinatorClient",
    "DistCoordinator",
    "ProtocolError",
    "WorkerConfig",
    "WorkerSummary",
    "protocol_descriptor",
    "resolve_spec",
    "result_sha256",
    "run_worker",
]
