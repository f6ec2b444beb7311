"""Run manifests: one JSON document describing a profiled pipeline run.

A manifest records everything needed to interpret (and compare) a run
after the fact: the command, the :class:`~repro.core.study.StudyConfig`
fingerprint, schema versions (manifest + simulation cache), host info,
the merged metrics, and the full span tree.  The CLI emits one with
``--trace OUT.json`` on ``run``, ``landscape``, ``conformance``, and
``profile``; ``tests/manifest_schema.json`` pins the document shape.

Rendering helpers live here too: :func:`render_metrics` (the ``--metrics``
table) and :func:`render_profile` (the ``ddoscovery profile`` self-time
table, hottest phases first).  :func:`validate_manifest` implements the
small JSON-Schema subset the checked-in schema uses — ``type``,
``required``, ``properties``, ``additionalProperties``, ``items`` — so
validation needs no third-party dependency.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanNode, Tracer
from repro.util.atomic import atomic_write

#: Bumped when the manifest document layout changes.
MANIFEST_SCHEMA_VERSION = 1


def host_info() -> dict[str, Any]:
    """The execution environment, as far as it can affect timings."""
    try:
        cpu_count = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cpu_count = os.cpu_count() or 1
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": cpu_count,
    }


def config_summary(config: Any) -> dict[str, Any] | None:
    """Identity of the study configuration a run executed, or ``None``."""
    if config is None:
        return None
    from repro.core.cache import config_fingerprint

    calendar = config.calendar
    return {
        "seed": int(config.seed),
        "window": f"{calendar.start}..{calendar.end}",
        "n_weeks": int(calendar.n_weeks),
        "fingerprint": config_fingerprint(config),
    }


def build_manifest(
    command: str,
    *,
    config: Any = None,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    argv: list[str] | None = None,
    sweep: dict[str, Any] | None = None,
    job: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the manifest document for one observed run.

    ``sweep`` is the optional provenance block a sweep-scheduled run
    carries (``sweep_id``, ``cell_index``, ``spec_fingerprint``; see
    :func:`repro.sweep.scheduler.sweep_provenance`) — omitted entirely
    for standalone runs.  ``job`` is the analogous provenance block for
    runs executed by the service daemon (``job_id``, ``kind``, the
    coalescing ``key``; see :mod:`repro.service.jobs`).
    """
    from repro.core.cache import CACHE_SCHEMA_VERSION

    manifest = {
        "manifest_schema": MANIFEST_SCHEMA_VERSION,
        "cache_schema": CACHE_SCHEMA_VERSION,
        "command": command,
        "argv": list(argv) if argv is not None else list(sys.argv[1:]),
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "host": host_info(),
        "config": config_summary(config),
        "metrics": (registry or MetricsRegistry()).summary(),
        "spans": (tracer.root if tracer is not None else SpanNode("")).to_dict(),
    }
    if sweep is not None:
        manifest["sweep"] = dict(sweep)
    if job is not None:
        manifest["job"] = dict(job)
    return manifest


def write_manifest(path: str | Path, manifest: dict[str, Any]) -> Path:
    """Write one manifest as pretty-printed JSON; returns the path.

    Written to a temp file and renamed over ``path``, so a killed writer
    leaves the old manifest or the new one, never a torn one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    with atomic_write(path) as handle:
        handle.write(text.encode("utf-8"))
    return path


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read one manifest back."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- schema validation ---------------------------------------------------------

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate_manifest(
    document: Any, schema: dict[str, Any], path: str = "$"
) -> list[str]:
    """Validate against the JSON-Schema subset used by
    ``tests/manifest_schema.json``; returns human-readable error strings
    (empty means valid)."""
    errors: list[str] = []
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](document) for t in allowed):
            return [
                f"{path}: expected type {'|'.join(allowed)}, "
                f"got {type(document).__name__}"
            ]
    if isinstance(document, dict):
        for required in schema.get("required", ()):
            if required not in document:
                errors.append(f"{path}: missing required property {required!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, value in document.items():
            if key in properties:
                errors.extend(
                    validate_manifest(value, properties[key], f"{path}.{key}")
                )
            elif additional is False:
                errors.append(f"{path}: unexpected property {key!r}")
            elif isinstance(additional, dict):
                errors.extend(validate_manifest(value, additional, f"{path}.{key}"))
    if isinstance(document, list) and "items" in schema:
        for index, item in enumerate(document):
            errors.extend(
                validate_manifest(item, schema["items"], f"{path}[{index}]")
            )
    return errors


# -- rendering -----------------------------------------------------------------


def render_metrics(summary: dict[str, dict]) -> str:
    """The ``--metrics`` table: counters, gauges, histogram digests."""
    lines = ["metrics:"]
    counters = summary.get("counters", {})
    gauges = summary.get("gauges", {})
    histograms = summary.get("histograms", {})
    if not (counters or gauges or histograms):
        lines.append("  (none recorded)")
        return "\n".join(lines)
    for key, value in counters.items():
        lines.append(f"  counter    {key:42s} {value:>14,}")
    for key, value in gauges.items():
        rendered = "-" if value is None else f"{value:,.0f}"
        lines.append(f"  gauge      {key:42s} {rendered:>14}")
    for key, digest in histograms.items():
        if digest.get("count", 0) == 0:
            lines.append(f"  histogram  {key:42s} {'(empty)':>14}")
            continue
        lines.append(
            f"  histogram  {key:42s} {digest['count']:>14,}"
            f"  p50={digest['p50']:.1f} p90={digest['p90']:.1f} "
            f"max={digest['max']:.1f}"
        )
    return "\n".join(lines)


def render_profile(root: SpanNode, top: int | None = None) -> str:
    """Self-time table of the hottest phases, one row per span key.

    Rows aggregate every node sharing a key (wherever it sits in the
    tree) and sort by self wall time — the time a phase spent *not*
    inside an instrumented child — so the top row is the best
    optimisation target.
    """
    rows: dict[str, list[float]] = {}
    for _, node in root.walk():
        row = rows.setdefault(node.key, [0, 0.0, 0.0, 0.0, 0])
        row[0] += node.count
        row[1] += node.wall_s
        row[2] += node.self_wall_s
        row[3] += node.self_cpu_s
        row[4] += node.errors
    ordered = sorted(rows.items(), key=lambda item: -item[1][2])
    if top is not None:
        ordered = ordered[:top]
    header = (
        f"{'phase':44s} {'calls':>9s} {'total(s)':>10s} "
        f"{'self(s)':>10s} {'self-cpu(s)':>12s}"
    )
    lines = [header, "-" * len(header)]
    for key, (count, wall, self_wall, self_cpu, errors) in ordered:
        suffix = f"  !{errors}" if errors else ""
        lines.append(
            f"{key:44s} {count:>9,} {wall:>10.3f} "
            f"{self_wall:>10.3f} {self_cpu:>12.3f}{suffix}"
        )
    if not ordered:
        lines.append("(no spans recorded)")
    return "\n".join(lines)
