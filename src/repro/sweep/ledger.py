"""On-disk run ledger: resumable bookkeeping for one sweep.

One directory per sweep under ``<cache root>/sweeps/<sweep id>/``:

``ledger.jsonl``
    A header record (sweep id, spec fingerprint, cell count) followed by
    one ``cell`` record per *completed* cell — its index, id, axis
    labels, config fingerprint, elapsed time, and the full extracted
    :class:`~repro.sweep.report.CellResult` payload.  Records are
    appended with a flush+fsync after each cell, so a killed sweep loses
    at most the cell it was simulating.  A kill mid-append leaves a torn
    last line; the next run cuts it off before its first append, so its
    records never land on the end of that line.
``cells/cell-NNN.json``
    A run manifest per cell (:func:`repro.obs.build_manifest`) carrying
    sweep provenance: sweep id, cell index, spec fingerprint.

Reading is tolerant by construction: a truncated trailing line (the
process died mid-append) is ignored, a header that does not match the
spec fingerprint invalidates the whole ledger, and any duplicate cell
index keeps the *first* record so a resumed sweep can never flip an
already-published result.  The ledger stores everything a report needs
— building a :class:`~repro.sweep.report.SweepReport` never re-runs a
simulation, which is what makes interrupted-and-resumed output
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.cache import sweeps_root
from repro.sweep.spec import (
    SWEEP_SCHEMA_VERSION,
    ScenarioSpec,
    spec_fingerprint,
    sweep_id,
)

LEDGER_FILE = "ledger.jsonl"
CELLS_DIR = "cells"


class LedgerMismatch(RuntimeError):
    """The on-disk ledger belongs to a different (or older) spec."""


@dataclass
class LedgerState:
    """Parsed ledger contents: the header plus completed-cell records."""

    header: dict[str, Any] | None
    cells: dict[int, dict[str, Any]]

    @property
    def completed(self) -> set[int]:
        return set(self.cells)


class SweepLedger:
    """Append-only JSONL ledger for one sweep directory."""

    def __init__(self, spec: ScenarioSpec, root: str | Path | None = None) -> None:
        self.spec = spec
        self.sweep_id = sweep_id(spec)
        self.spec_fingerprint = spec_fingerprint(spec)
        self.dir = sweeps_root(root) / self.sweep_id
        self._tail_repaired = False

    @property
    def path(self) -> Path:
        return self.dir / LEDGER_FILE

    @property
    def cells_dir(self) -> Path:
        return self.dir / CELLS_DIR

    def manifest_path(self, index: int) -> Path:
        return self.cells_dir / f"cell-{index:03d}.json"

    # -- reading -----------------------------------------------------------------

    def read(self) -> LedgerState:
        """Parse the ledger, skipping a torn trailing line.

        Raises :class:`LedgerMismatch` if the header exists but pins a
        different spec fingerprint or schema — resuming against it would
        mix cells from two different ensembles.
        """
        header: dict[str, Any] | None = None
        cells: dict[int, dict[str, Any]] = {}
        try:
            raw_lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return LedgerState(header=None, cells={})
        for line in raw_lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # A torn append from a killed run; everything before it
                # is intact, everything after it does not exist.
                break
            kind = record.get("kind")
            if kind == "sweep" and header is None:
                header = record
            elif kind == "cell":
                index = int(record.get("index", -1))
                if index >= 0:
                    cells.setdefault(index, record)
        if header is not None:
            if header.get("schema") != SWEEP_SCHEMA_VERSION or header.get(
                "spec_fingerprint"
            ) != self.spec_fingerprint:
                raise LedgerMismatch(
                    f"ledger at {self.path} was written for a different "
                    f"spec (fingerprint {header.get('spec_fingerprint')!r}); "
                    f"re-run without --resume to start fresh"
                )
        return LedgerState(header=header, cells=cells)

    # -- writing -----------------------------------------------------------------

    def reset(self) -> None:
        """Drop all ledger state (fresh-run semantics)."""
        try:
            self.path.unlink()
        except OSError:
            pass
        if self.cells_dir.is_dir():
            for manifest in self.cells_dir.glob("cell-*.json"):
                try:
                    manifest.unlink()
                except OSError:
                    pass

    def write_header(self, n_cells: int) -> None:
        """Start a ledger: directory plus the identifying header record."""
        self.dir.mkdir(parents=True, exist_ok=True)
        self._append(
            {
                "kind": "sweep",
                "schema": SWEEP_SCHEMA_VERSION,
                "sweep_id": self.sweep_id,
                "name": self.spec.name,
                "spec_fingerprint": self.spec_fingerprint,
                "n_cells": int(n_cells),
            }
        )

    def append_cell(
        self,
        *,
        index: int,
        cell_id: str,
        labels: dict[str, str],
        config_fingerprint: str,
        elapsed_s: float,
        result: dict[str, Any],
    ) -> None:
        """Record one completed cell (durably: flush + fsync)."""
        self._append(
            {
                "kind": "cell",
                "index": int(index),
                "cell_id": cell_id,
                "labels": labels,
                "config_fingerprint": config_fingerprint,
                "elapsed_s": float(elapsed_s),
                "result": result,
            }
        )

    def _append(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if not self._tail_repaired:
            self._truncate_torn_tail()
            self._tail_repaired = True
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _truncate_torn_tail(self) -> None:
        """Cut the file back to the end of its last complete line."""
        try:
            with open(self.path, "r+b") as handle:
                data = handle.read()
                end = data.rfind(b"\n") + 1
                if end < len(data):
                    handle.truncate(end)
        except FileNotFoundError:
            pass
