"""Span recording for the traced run, from outside the program.

Each span has an id, a name, a parent span, start and end (seconds since
the tracer was made) and the id of the operation it belongs to.  Spans
stay in memory and are written out once, when the run ends.  Nothing
here touches the program's own :mod:`repro.obs` spans; layer calls are
timed by wrapping public functions and methods for the length of a
``with`` block (:func:`wrapped`).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


class Tracer:
    """Records spans; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def operation(self) -> int:
        """Start a new operation on this thread; later spans carry its id."""
        self._local.op = next(self._ops)
        return self._local.op

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {
                    "id": span_id,
                    "op": getattr(self._local, "op", 0),
                    "name": name,
                    "parent": parent,
                    "start": start - self._t0,
                    "end": end - self._t0,
                }
            )

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self.spans, key=lambda s: s["id"])
        path.write_text(json.dumps({"meta": meta, "spans": ordered}) + "\n")


def timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``fn`` wrapped so that every call is span ``name``."""

    def call(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return call


@contextmanager
def replaced(owner: Any, attribute: str, value: Any) -> Iterator[None]:
    """Set ``owner.attribute`` to ``value`` while open, then restore it."""
    original = getattr(owner, attribute)
    setattr(owner, attribute, value)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def wrapped(tracer: Tracer, owner: Any, attribute: str, name: str):
    """Time every call of ``owner.attribute`` as span ``name`` while open.

    ``owner`` is a module, a class (the wrapper then acts as a method) or
    an instance.
    """
    return replaced(owner, attribute, timed(tracer, name, getattr(owner, attribute)))
