"""``repro.obs``: zero-dependency observability for the pipeline.

Three pieces, each usable alone:

:mod:`repro.obs.trace`
    ``span("simulate.shard")`` context managers building an aggregated
    span tree (count, wall time, process CPU time per phase).
:mod:`repro.obs.metrics`
    A registry of counters, gauges, and histograms with deterministic
    shard-snapshot merging — ``--jobs N`` reports identical aggregate
    values for any ``N``.
:mod:`repro.obs.manifest`
    The :func:`build_manifest` run manifest (config fingerprint, schema
    versions, host info, metrics, span tree) emitted by the CLI's
    ``--trace`` flag, plus the ``--metrics`` and ``profile`` renderers.

Metric contexts (:func:`collecting`) and tracers (:func:`tracing`) both
nest per thread: each thread records into the innermost context it
opened.  A thread that opened no metrics context records into the main
thread's innermost one; spans always need a parent on their own thread.

Instrumentation never touches an RNG stream, so it is side-effect-free
on simulation output; disable it wholesale with :func:`set_enabled`.
:func:`absorb` is the parent-side merge primitive the sharded executor
uses to fold a worker's ``(metrics snapshot, span tree)`` payload into
the current collection context, in shard order.
"""

from __future__ import annotations

from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    host_info,
    load_manifest,
    render_metrics,
    render_profile,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting,
    counter,
    enabled,
    gauge,
    histogram,
    merge_snapshots,
    metric_key,
    registry,
    set_enabled,
)
from repro.obs.trace import SpanNode, Tracer, span, span_key, tracer, tracing

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanNode",
    "Tracer",
    "absorb",
    "build_manifest",
    "collecting",
    "counter",
    "enabled",
    "gauge",
    "histogram",
    "host_info",
    "load_manifest",
    "merge_snapshots",
    "metric_key",
    "registry",
    "render_metrics",
    "render_profile",
    "set_enabled",
    "span",
    "span_key",
    "tracer",
    "tracing",
    "validate_manifest",
    "write_manifest",
]


def absorb(snapshot: dict | None, tree: dict | None) -> None:
    """Fold one shard's observability payload into the current context.

    Counters add, gauges take the last write, histograms extend, and the
    span tree grafts under the currently open span, all in the calling
    thread's contexts.  Callers merge shard payloads in shard order,
    which makes the aggregate identical for any worker count.  No-op
    while observability is disabled.
    """
    if not enabled():
        return
    if snapshot:
        registry().merge(snapshot)
    if tree:
        tracer().graft(tree)
