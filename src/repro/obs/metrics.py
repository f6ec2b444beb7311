"""Process-safe metrics registry: counters, gauges, and histograms.

The registry is deliberately tiny and dependency-free.  Instrumented code
calls the module-level helpers (:func:`counter`, :func:`gauge`,
:func:`histogram`), which resolve against the innermost *collection
context* — a stack of :class:`MetricsRegistry` instances pushed by
:class:`collecting`.  The sharded executor in :mod:`repro.util.parallel`
runs every shard inside its own fresh context, ships the per-shard
:meth:`~MetricsRegistry.snapshot` back to the parent, and merges the
snapshots **in shard order**, so the aggregate values are identical for
any ``--jobs N``:

* counters are integers and merge by addition (associative, commutative);
* gauges are idempotent absolute values and merge last-write-wins in the
  deterministic merge order;
* histograms keep their exact observations; merged quantiles sort first,
  and sums use :func:`math.fsum` (exactly rounded, order-independent).

Contexts nest per thread, as spans do: a context is pushed and popped on
the thread that opens it, and a record lands in the innermost context of
the thread that makes it.  A thread that opened no context records into
the main thread's innermost one.

Instrumentation is side-effect-free on results — it never touches an RNG
stream — and can be disabled entirely with :func:`set_enabled`, in which
case every helper returns a shared no-op object.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterator

_ENABLED: list[bool] = [True]


def enabled() -> bool:
    """Whether instrumentation is active for this process."""
    return _ENABLED[0]


def set_enabled(flag: bool) -> None:
    """Turn instrumentation on or off (used by the overhead guard test)."""
    _ENABLED[0] = bool(flag)


def metric_key(name: str, labels: dict[str, Any]) -> str:
    """Canonical storage key: ``name`` or ``name{k=v,...}`` (sorted keys)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


# -- instruments ---------------------------------------------------------------


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative)."""
        if n < 0:
            raise ValueError("counters only increase")
        self.value += int(n)


class Gauge:
    """A last-written absolute value (idempotent across shards)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the current absolute value."""
        self.value = float(value)


class Histogram:
    """Exact-valued histogram: keeps every observation.

    Exactness is what makes the shard merge deterministic: merged
    quantiles are computed over the sorted union of all observations
    (partition-independent), and :attr:`sum` uses :func:`math.fsum`,
    which is exactly rounded and therefore order-independent.  Intended
    for bounded-cardinality phase-level measurements (per-day event
    counts, shard widths), not per-event firehoses.
    """

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._values.append(float(value))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return math.fsum(self._values)

    @property
    def min(self) -> float:
        return min(self._values) if self._values else math.nan

    @property
    def max(self) -> float:
        return max(self._values) if self._values else math.nan

    def quantile(self, q: float) -> float:
        """Linearly interpolated quantile of the observations, ``q`` in [0, 1]."""
        if not self._values:
            raise ValueError("empty histogram has no quantiles")
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        ordered = sorted(self._values)
        position = q * (len(ordered) - 1)
        low = int(math.floor(position))
        high = int(math.ceil(position))
        low_value, high_value = ordered[low], ordered[high]
        if low == high or low_value == high_value:
            return low_value
        fraction = position - low
        # low + f*(high-low) rounds monotonically in f (unlike the
        # a*(1-f) + b*f form, which can dip below a for f > 0), and the
        # clamp keeps the result inside the bracketing observations.
        value = low_value + fraction * (high_value - low_value)
        return min(max(value, low_value), high_value)

    def summary(self) -> dict[str, float | int]:
        """Manifest-sized digest of the distribution."""
        if not self._values:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class _Noop:
    """Shared do-nothing instrument returned while observability is off."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NOOP = _Noop()


# -- the registry --------------------------------------------------------------


class MetricsRegistry:
    """One namespace of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- creation-on-demand ------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = metric_key(name, labels)
        instrument = self.counters.get(key)
        if instrument is None:
            instrument = self.counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = metric_key(name, labels)
        instrument = self.gauges.get(key)
        if instrument is None:
            instrument = self.gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = metric_key(name, labels)
        instrument = self.histograms.get(key)
        if instrument is None:
            instrument = self.histograms[key] = Histogram()
        return instrument

    # -- snapshot / merge --------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """JSON-able raw values — the unit a shard worker ships home."""
        return {
            "counters": {key: c.value for key, c in sorted(self.counters.items())},
            "gauges": {key: g.value for key, g in sorted(self.gauges.items())},
            "histograms": {
                key: list(h.values) for key, h in sorted(self.histograms.items())
            },
        }

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Fold one snapshot in: counters add, gauges overwrite, histograms
        extend.  Merging shard snapshots in shard order yields identical
        aggregates for any worker count."""
        for key, value in snapshot.get("counters", {}).items():
            self.counter(key).inc(int(value))
        for key, value in snapshot.get("gauges", {}).items():
            if value is not None:
                self.gauge(key).set(value)
        for key, values in snapshot.get("histograms", {}).items():
            self.histogram(key)._values.extend(float(v) for v in values)

    def summary(self) -> dict[str, dict]:
        """Manifest form: raw counters and gauges, digested histograms."""
        return {
            "counters": {key: c.value for key, c in sorted(self.counters.items())},
            "gauges": {key: g.value for key, g in sorted(self.gauges.items())},
            "histograms": {
                key: h.summary() for key, h in sorted(self.histograms.items())
            },
        }

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)


def merge_snapshots(snapshots: "Iterator[dict] | list[dict]") -> dict[str, dict]:
    """Merge snapshots (in the given order) into one combined snapshot."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge(snapshot)
    return merged.snapshot()


# -- the collection-context stacks --------------------------------------------

#: The main thread's context stack, rooted at the process-wide registry.
_MAIN_STACK: list[MetricsRegistry] = [MetricsRegistry()]


class _RegistryStack(threading.local):
    """Per-thread stack of collection contexts.

    Contexts nest per thread, as tracers do
    (:class:`repro.obs.trace._TracerStack`), so two threads' contexts
    never capture each other's records or close out of order.  A thread
    that opened no context records into the main thread's innermost
    one: counters only add up, so any context can take them.
    """

    def __init__(self) -> None:
        main = threading.current_thread() is threading.main_thread()
        self.stack: list[MetricsRegistry] = _MAIN_STACK if main else []


_REGISTRIES = _RegistryStack()


def registry() -> MetricsRegistry:
    """The innermost registry of this thread (else of the main thread)."""
    return (_REGISTRIES.stack or _MAIN_STACK)[-1]


def counter(name: str, **labels: Any):
    """The named counter of the current registry (no-op when disabled)."""
    if not _ENABLED[0]:
        return _NOOP
    return (_REGISTRIES.stack or _MAIN_STACK)[-1].counter(name, **labels)


def gauge(name: str, **labels: Any):
    """The named gauge of the current registry (no-op when disabled)."""
    if not _ENABLED[0]:
        return _NOOP
    return (_REGISTRIES.stack or _MAIN_STACK)[-1].gauge(name, **labels)


def histogram(name: str, **labels: Any):
    """The named histogram of the current registry (no-op when disabled)."""
    if not _ENABLED[0]:
        return _NOOP
    return (_REGISTRIES.stack or _MAIN_STACK)[-1].histogram(name, **labels)


class collecting:
    """Context manager scoping this thread's metric writes to a fresh registry.

    Everything the calling thread records inside the ``with`` block lands
    in the yielded registry only; the enclosing context is untouched.
    Used per CLI command (isolation between invocations in one process),
    per service job and per shard (the delta a worker ships back to the
    parent).
    """

    __slots__ = ("_registry",)

    def __enter__(self) -> MetricsRegistry:
        self._registry = MetricsRegistry()
        _REGISTRIES.stack.append(self._registry)
        return self._registry

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _REGISTRIES.stack.pop()
        assert popped is self._registry, "unbalanced metrics contexts"
