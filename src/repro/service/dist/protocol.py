"""The versioned dist wire protocol: schemas, handshake, content hashes.

Every ``/v1/dist/*`` message body is validated against a mini JSON
schema from :data:`DIST_SCHEMAS` (the same subset
:func:`repro.obs.manifest.validate_manifest` checks run manifests and
artifact payloads against), so protocol errors surface as structured
400s instead of KeyErrors deep in the coordinator.

The handshake is explicit: a worker registers with its
:data:`DIST_PROTOCOL_VERSION` and capability list, and the coordinator
rejects a mismatched protocol with a ``protocol-mismatch`` error that
names both versions — a worker from a different checkout can never
corrupt a ledger by speaking an older dialect.  Task descriptors name
specs by *preset* (never by pickled config): both sides expand the
preset locally through :func:`resolve_spec` and compare spec
fingerprints, so a worker whose preset registry drifted from the
coordinator's refuses the work instead of computing the wrong cells.

Result upload is content-addressed: :func:`result_sha256` hashes the
canonical JSON encoding (:func:`repro.core.artifacts.artifact_json_bytes`
— the same encoder behind every artifact byte in the repo), the worker
ships hash + payload, and the coordinator re-encodes what it received
and verifies the hash before merging into the ledger.
"""

from __future__ import annotations

import hashlib
from typing import Any

#: Bump on any wire-incompatible change; registration rejects mismatches.
DIST_PROTOCOL_VERSION = 1

#: Task kinds this protocol version can decompose and execute.
DIST_CAPABILITIES = ("sweep-preset", "whatif-preset")


class ProtocolError(Exception):
    """A structured wire-protocol failure.

    Carries an HTTP status, a stable machine-readable ``code``, and
    optional detail fields that join the error document — the transport
    layer renders it as ``{"error": {"status", "message", "code", ...}}``.
    """

    def __init__(
        self, status: int, code: str, message: str, **details: Any
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message
        self.details = details

    def document(self) -> dict[str, Any]:
        return {"code": self.code, **self.details}


def _obj(properties: dict[str, Any], required: list[str]) -> dict[str, Any]:
    return {
        "type": "object",
        "required": required,
        "properties": properties,
        "additionalProperties": False,
    }


_TASK_SCHEMA = _obj(
    {
        "spec_kind": {"type": "string"},
        "preset": {"type": "string"},
        "strength": {"type": ["number", "null"]},
        "spec_fingerprint": {"type": "string"},
    },
    ["spec_kind", "preset", "strength", "spec_fingerprint"],
)

_CELL_SCHEMA = _obj(
    {
        "index": {"type": "integer"},
        "cell_id": {"type": "string"},
        "config_fingerprint": {"type": "string"},
    },
    ["index", "cell_id", "config_fingerprint"],
)

#: name -> mini JSON schema for every dist message body (both
#: directions).  These join the repo's schema registry: the openapi
#: document publishes them under ``components.schemas["dist.<name>"]``.
DIST_SCHEMAS: dict[str, dict[str, Any]] = {
    "register_request": _obj(
        {
            "protocol": {"type": "integer"},
            "worker_id": {"type": "string"},
            "capabilities": {"type": "array", "items": {"type": "string"}},
        },
        ["protocol", "worker_id", "capabilities"],
    ),
    "register_response": _obj(
        {
            "protocol": {"type": "integer"},
            "worker_id": {"type": "string"},
            "capabilities": {"type": "array", "items": {"type": "string"}},
            "lease_ttl_s": {"type": "number"},
            "heartbeat_interval_s": {"type": "number"},
            "poll_interval_s": {"type": "number"},
        },
        [
            "protocol",
            "worker_id",
            "capabilities",
            "lease_ttl_s",
            "heartbeat_interval_s",
            "poll_interval_s",
        ],
    ),
    "heartbeat_response": _obj(
        {"worker_id": {"type": "string"}, "draining": {"type": "boolean"}},
        ["worker_id", "draining"],
    ),
    "lease_request": _obj(
        {"worker_id": {"type": "string"}},
        ["worker_id"],
    ),
    "lease_response": _obj(
        {
            "lease_id": {"type": ["string", "null"]},
            "task_id": {"type": ["string", "null"]},
            "ttl_s": {"type": "number"},
            "retry_after_s": {"type": "number"},
            "draining": {"type": "boolean"},
            "cell": {**_CELL_SCHEMA, "type": ["object", "null"]},
            "task": {**_TASK_SCHEMA, "type": ["object", "null"]},
        },
        ["lease_id", "retry_after_s", "draining"],
    ),
    "renew_request": _obj(
        {"worker_id": {"type": "string"}},
        ["worker_id"],
    ),
    "complete_request": _obj(
        {
            "worker_id": {"type": "string"},
            "result": {"type": "object"},
            "result_sha256": {"type": "string"},
            "elapsed_s": {"type": "number"},
        },
        ["worker_id", "result", "result_sha256", "elapsed_s"],
    ),
    "fail_request": _obj(
        {"worker_id": {"type": "string"}, "message": {"type": "string"}},
        ["worker_id", "message"],
    ),
    "error": _obj(
        {
            "status": {"type": "integer"},
            "message": {"type": "string"},
            "code": {"type": "string"},
        },
        ["status", "message"],
    ),
}


def validate_message(name: str, document: Any) -> dict[str, Any]:
    """Validate one wire message body against its registered schema.

    Returns the document on success; raises :class:`ProtocolError`
    (400, ``invalid-message``) listing every schema violation otherwise.
    """
    from repro.obs.manifest import validate_manifest

    schema = DIST_SCHEMAS[name]
    errors = validate_manifest(document, schema)
    if errors:
        raise ProtocolError(
            400,
            "invalid-message",
            f"invalid {name} body: {'; '.join(errors)}",
            schema=name,
        )
    return document


def protocol_descriptor() -> dict[str, Any]:
    """The handshake document served at ``GET /v1/dist/protocol``."""
    return {
        "protocol": DIST_PROTOCOL_VERSION,
        "capabilities": list(DIST_CAPABILITIES),
        "schemas": sorted(DIST_SCHEMAS),
    }


def check_protocol(payload: dict[str, Any]) -> None:
    """Reject a registration whose protocol version does not match ours."""
    offered = payload.get("protocol")
    if offered != DIST_PROTOCOL_VERSION:
        raise ProtocolError(
            409,
            "protocol-mismatch",
            f"worker speaks dist protocol {offered!r}, coordinator "
            f"speaks {DIST_PROTOCOL_VERSION}; upgrade the older side",
            expected=DIST_PROTOCOL_VERSION,
            got=offered,
        )
    unknown = set(payload.get("capabilities", ())) - set(DIST_CAPABILITIES)
    if unknown:
        raise ProtocolError(
            409,
            "unknown-capability",
            f"worker offers capabilities this coordinator does not know: "
            f"{sorted(unknown)}",
            expected=list(DIST_CAPABILITIES),
        )


def resolve_spec(task: dict[str, Any]):
    """Expand a task descriptor into its :class:`ScenarioSpec` locally.

    Both sides call this — the coordinator when a job hands it cells,
    the worker when executing a lease — and compare the resulting spec
    fingerprint, so a preset-registry drift between the two processes is
    caught before any cell runs.  Raises :class:`ProtocolError` on an
    unknown kind/preset or a fingerprint mismatch.
    """
    from repro.sweep.spec import spec_fingerprint

    kind = task["spec_kind"]
    if kind == "sweep-preset":
        from repro.sweep.presets import preset as sweep_preset

        try:
            spec = sweep_preset(task["preset"])
        except KeyError as error:
            raise ProtocolError(
                400, "unknown-preset", str(error.args[0])
            ) from None
    elif kind == "whatif-preset":
        from repro.counterfactual import whatif_preset

        try:
            spec = whatif_preset(
                task["preset"], float(task["strength"])
            ).spec()
        except (KeyError, ValueError) as error:
            raise ProtocolError(
                400, "unknown-preset", str(error.args[0])
            ) from None
    else:
        raise ProtocolError(
            400,
            "unknown-capability",
            f"unknown task kind {kind!r}; this side speaks "
            f"{list(DIST_CAPABILITIES)}",
            expected=list(DIST_CAPABILITIES),
            got=kind,
        )
    fingerprint = spec_fingerprint(spec)
    expected = task.get("spec_fingerprint")
    if expected is not None and fingerprint != expected:
        raise ProtocolError(
            409,
            "spec-mismatch",
            f"preset {task['preset']!r} expands to spec fingerprint "
            f"{fingerprint} here but {expected} on the other side; the "
            "preset registries have drifted",
            expected=expected,
            got=fingerprint,
        )
    return spec


def result_sha256(result: dict[str, Any]) -> str:
    """Content address of one cell result: sha256 over canonical bytes.

    Uses :func:`repro.core.artifacts.artifact_json_bytes` — the one
    canonical encoder — so worker and coordinator hash the *meaning* of
    the payload, independent of dict ordering or transport formatting.
    """
    from repro.core.artifacts import artifact_json_bytes

    return hashlib.sha256(artifact_json_bytes(result)).hexdigest()
