"""Content-addressed on-disk cache for simulated study results.

Re-simulating the 4.5-year landscape costs seconds per process; every CLI
invocation, figure script, and notebook cell used to pay it again.  This
module persists the merged simulation output — per-observatory
:class:`~repro.observatories.base.Observations` plus the weekly
ground-truth arrays — keyed by a fingerprint of everything that determines
it, so a second run with the same :class:`~repro.core.study.StudyConfig`
loads in milliseconds and *any* config change (seed, calendar, generator
parameters, ...) misses automatically.

Layout: one ``study-<fingerprint>.npz`` per config under the cache root.
The root resolves, in order, to ``$REPRO_CACHE_DIR``,
``$XDG_CACHE_HOME/repro``, or ``~/.cache/repro``.  Writes are atomic
(temp file + rename) and loads treat any unreadable or mismatched file as
a miss, falling back to re-simulation — a corrupted cache can cost time,
never correctness.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.attacks.events import AttackClass
from repro.core.io import pack_observations, unpack_observations
from repro.obs import counter, span
from repro.observatories.base import Observations
from repro.util.calendar import StudyCalendar

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling the cache entirely (any non-empty value).
CACHE_DISABLE_ENV = "REPRO_NO_CACHE"

#: Bumped whenever the stored layout or simulation semantics change, so
#: stale files from older versions miss instead of deserialising garbage.
#: v2: campaign spawning and weekly supply noise moved to per-(class, week)
#: keyed RNG streams (calendar-prefix consistency).
#: v3: columnar shard generation + fused observatory sweep (vectorised
#: target/vector draws consume different RNG variates than the per-event
#: loops they replaced).
CACHE_SCHEMA_VERSION = 3

_META_KEY = "__meta__"
_TRUTH_PREFIX = "truth::"

#: Persistent cache-activity counters, kept next to the entries so
#: ``ddoscovery cache info`` can report hit rates across processes.
STATS_FILE = "stats.json"

_STATS_KEYS = ("hits", "misses", "stores", "bytes_read", "bytes_written")


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` > ``$XDG_CACHE_HOME/repro`` >
    ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def cache_enabled() -> bool:
    """Whether caching is enabled for this process (env kill-switch)."""
    return not os.environ.get(CACHE_DISABLE_ENV)


def sweeps_root(root: str | Path | None = None) -> Path:
    """Where sweep ledgers live: ``<cache root>/sweeps``.

    Sweep state sits next to the study cache on purpose: the ledger is
    exactly as disposable as the cached simulation results it indexes,
    and one ``REPRO_CACHE_DIR`` override relocates both.
    """
    base = Path(root).expanduser() if root is not None else default_cache_dir()
    return base / "sweeps"


def transport_root(root: str | Path | None = None) -> Path:
    """Where in-flight shard transport files live: ``<cache root>/transport``.

    Each parallel run makes its own temporary directory underneath and
    removes it when the run finishes (success or crash), so anything left
    here is disposable by construction.
    """
    base = Path(root).expanduser() if root is not None else default_cache_dir()
    return base / "transport"


# -- config fingerprinting -----------------------------------------------------


def _canonical(value: Any) -> Any:
    """A JSON-serialisable canonical form of a config value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, _dt.date):
        return value.isoformat()
    if isinstance(value, StudyCalendar):
        return {
            "__type__": "StudyCalendar",
            "start": value.start.isoformat(),
            "end": value.end.isoformat(),
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Fields tagged ``fingerprint: omit-if-none`` drop out of the
        # payload while unset, so adding such a field to a config does not
        # perturb the fingerprints (and goldens) of existing configs.
        return {
            "__type__": type(value).__name__,
            **{
                field.name: _canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)
                if not (
                    getattr(value, field.name) is None
                    and field.metadata.get("fingerprint") == "omit-if-none"
                )
            },
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(item) for item in value)
    if isinstance(value, dict):
        return {str(key): _canonical(value[key]) for key in sorted(value)}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    # Last resort: repr keeps unknown types *distinguishable* so differing
    # configs never silently collide on one cache entry.
    return {"__repr__": repr(value)}


def canonical(value: Any) -> Any:
    """Public canonicalisation hook (sweep specs fingerprint through it)."""
    return _canonical(value)


def config_fingerprint(config: Any) -> str:
    """Stable hex digest of everything that determines simulation output."""
    payload = json.dumps(
        {"schema": CACHE_SCHEMA_VERSION, "config": _canonical(config)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- the cache -----------------------------------------------------------------


class StudyCache:
    """One directory of content-addressed simulation results."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, fingerprint: str) -> Path:
        """The cache file for a config fingerprint."""
        return self.root / f"study-{fingerprint}.npz"

    # -- store / load -----------------------------------------------------------

    def store(
        self,
        fingerprint: str,
        sinks: dict[str, Observations],
        ground_truth: dict[AttackClass, np.ndarray],
    ) -> Path | None:
        """Persist one simulation result atomically.

        Returns the written path, or ``None`` when the cache directory is
        unusable (caching is best-effort; the simulation result is already
        in memory).
        """
        with span("cache.store"):
            items = pack_observations(sinks)
            for attack_class, weekly in ground_truth.items():
                items[f"{_TRUTH_PREFIX}{int(attack_class)}"] = np.asarray(
                    weekly, dtype=np.float64
                )
            items[_META_KEY] = np.array(
                json.dumps(
                    {
                        "schema": CACHE_SCHEMA_VERSION,
                        "fingerprint": fingerprint,
                        "observatories": sorted(sinks),
                    }
                )
            )
            path = self.path_for(fingerprint)
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                fd, tmp_name = tempfile.mkstemp(
                    prefix=path.stem, suffix=".tmp", dir=self.root
                )
                try:
                    with os.fdopen(fd, "wb") as handle:
                        np.savez(handle, **items)
                    os.replace(tmp_name, path)
                except BaseException:
                    os.unlink(tmp_name)
                    raise
            except OSError:
                return None
            written = path.stat().st_size
            counter("cache.stores").inc()
            counter("cache.bytes_written").inc(written)
            self._record(stores=1, bytes_written=written)
        return path

    def load(
        self, fingerprint: str
    ) -> tuple[dict[str, Observations], dict[AttackClass, np.ndarray]] | None:
        """Load one simulation result, or ``None`` on miss.

        Any failure — missing file, truncated archive, schema or
        fingerprint mismatch, bad column shapes — is a miss.
        """
        path = self.path_for(fingerprint)
        with span("cache.load"):
            try:
                with np.load(path, allow_pickle=False) as data:
                    meta = json.loads(str(data[_META_KEY]))
                    if meta.get("schema") != CACHE_SCHEMA_VERSION:
                        return self._miss()
                    if meta.get("fingerprint") != fingerprint:
                        return self._miss()
                    sinks = unpack_observations(data)
                    if sorted(sinks) != meta.get("observatories"):
                        return self._miss()
                    ground_truth = {
                        attack_class: np.asarray(
                            data[f"{_TRUTH_PREFIX}{int(attack_class)}"],
                            dtype=np.float64,
                        )
                        for attack_class in AttackClass
                    }
            except Exception:  # noqa: BLE001 - any unreadable entry is a miss
                return self._miss()
            read = path.stat().st_size
            counter("cache.hits").inc()
            counter("cache.bytes_read").inc(read)
            self._record(hits=1, bytes_read=read)
        return sinks, ground_truth

    def _miss(self) -> None:
        """Record one cache miss (helper so every miss path counts it)."""
        counter("cache.misses").inc()
        self._record(misses=1)
        return None

    # -- persistent activity stats ----------------------------------------------

    @property
    def stats_path(self) -> Path:
        """The on-disk activity counters next to the entries."""
        return self.root / STATS_FILE

    def stats(self) -> dict[str, int]:
        """Lifetime hit/miss/store counters (zeros when never recorded)."""
        try:
            raw = json.loads(self.stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            raw = {}
        return {key: int(raw.get(key, 0)) for key in _STATS_KEYS}

    def hit_rate(self) -> float | None:
        """Lifetime hit rate, or ``None`` before any lookup happened."""
        stats = self.stats()
        lookups = stats["hits"] + stats["misses"]
        if lookups == 0:
            return None
        return stats["hits"] / lookups

    def _record(self, **deltas: int) -> None:
        """Best-effort bump of the persistent counters (atomic rewrite).

        Concurrent writers can lose each other's increments — the stats
        are operational telemetry, never correctness-bearing — and any
        I/O failure is swallowed just like a cache write failure.
        """
        try:
            updated = self.stats()
            for key, delta in deltas.items():
                updated[key] = updated.get(key, 0) + int(delta)
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix="stats", suffix=".tmp", dir=self.root
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(updated, handle, sort_keys=True)
                os.replace(tmp_name, self.stats_path)
            except BaseException:
                os.unlink(tmp_name)
                raise
        except OSError:
            pass

    # -- maintenance ------------------------------------------------------------

    def entries(self) -> list[Path]:
        """All cache files under the root (sorted for stable listings)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("study-*.npz"))

    def clear(self) -> int:
        """Delete every cache entry (and the activity stats); returns the
        number of entries removed.

        Also removes the ``*.tmp`` files a writer killed between its temp
        file and the rename leaves behind; they are not entries.
        """
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        leftovers = sorted(self.root.glob("*.tmp")) if self.root.is_dir() else []
        for path in [*leftovers, self.stats_path]:
            try:
                path.unlink()
            except OSError:
                pass
        return removed

    def total_bytes(self) -> int:
        """Total size of all cache entries."""
        return sum(path.stat().st_size for path in self.entries())
