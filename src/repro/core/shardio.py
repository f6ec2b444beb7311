"""Zero-copy columnar shard transport files.

The process-parallel executor used to ship each shard's result to the
collector as a pickle through the multiprocessing result queue: every
observation column was serialised in the worker, buffered by the queue,
then copied again during unpickling in the parent.  This module replaces
that round trip with a file handoff — the worker writes one ``.shard``
file of raw, aligned column blobs plus a small pickled metadata blob, and
the collector memory-maps it and wraps the blobs in numpy views without
copying them.

Layout (all integers little-endian):

========  ========  ====================================================
field     size      content
========  ========  ====================================================
magic     8 bytes   ``b"RSHARD01"``
hlen      8 bytes   uint64 — JSON header length
header    hlen      JSON column directory + meta-blob location
columns   aligned   raw column blobs, each 64-byte aligned
meta      ...       pickled ``(snapshot, tree)`` observability payload
========  ========  ====================================================

Files are written atomically (temp + rename in the same directory).  The
format is a *transport*, not an archive: writer and reader always run the
same code version within one simulation run, so there is no cross-version
compatibility machinery — any malformed file is a hard error.
"""

from __future__ import annotations

import json
import mmap
import pickle
from pathlib import Path

import numpy as np

from repro.attacks.events import AttackClass
from repro.core.io import pack_result, unpack_result
from repro.observatories.base import Observations
from repro.util.atomic import atomic_write

#: Format magic; the trailing digits version the layout.
SHARD_MAGIC = b"RSHARD01"

#: Column blobs start on multiples of this (cache-line / SIMD friendly).
BLOB_ALIGN = 64


def write_shard(
    path: str | Path,
    sinks: dict[str, Observations],
    ground_truth: dict[AttackClass, np.ndarray],
    snapshot: dict,
    tree: dict,
) -> Path:
    """Write one shard result atomically; returns the final path."""
    path = Path(path)
    columns = pack_result(sinks, ground_truth)

    directory: list[dict] = []
    offset = 0  # relative to the first blob; rebased after the header
    blobs: list[np.ndarray] = []
    for key, column in columns.items():
        column = np.ascontiguousarray(column)
        offset = -(-offset // BLOB_ALIGN) * BLOB_ALIGN
        directory.append(
            {
                "key": key,
                "dtype": column.dtype.str,
                "offset": offset,
                "nbytes": column.nbytes,
                "count": len(column),
            }
        )
        blobs.append(column)
        offset += column.nbytes

    meta_blob = pickle.dumps((snapshot, tree), protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "columns": directory,
            "meta_offset": -(-offset // BLOB_ALIGN) * BLOB_ALIGN,
            "meta_nbytes": len(meta_blob),
        }
    ).encode("utf-8")

    base = len(SHARD_MAGIC) + 8 + len(header)
    base = -(-base // BLOB_ALIGN) * BLOB_ALIGN  # blobs start aligned too

    with atomic_write(path) as handle:
        handle.write(SHARD_MAGIC)
        handle.write(len(header).to_bytes(8, "little"))
        handle.write(header)
        cursor = len(SHARD_MAGIC) + 8 + len(header)
        for entry, blob in zip(directory, blobs):
            target = base + entry["offset"]
            handle.write(b"\0" * (target - cursor))
            handle.write(memoryview(blob).cast("B"))
            cursor = target + entry["nbytes"]
        meta_target = base + json.loads(header)["meta_offset"]
        handle.write(b"\0" * (meta_target - cursor))
        handle.write(meta_blob)
    return path


def read_shard(
    path: str | Path,
) -> tuple[
    tuple[dict[str, Observations], dict[AttackClass, np.ndarray]], dict, dict
]:
    """Map one shard file and rebuild its payload with zero-copy views.

    The returned observation columns are read-only numpy views into the
    file mapping; they hold the mapping alive, and the file itself may be
    unlinked as soon as this returns (POSIX keeps mapped pages valid).
    """
    path = Path(path)
    with path.open("rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    magic = mapped[: len(SHARD_MAGIC)]
    if magic != SHARD_MAGIC:
        raise ValueError(f"not a shard file: {path} (magic {magic!r})")
    hlen = int.from_bytes(
        mapped[len(SHARD_MAGIC) : len(SHARD_MAGIC) + 8], "little"
    )
    header = json.loads(
        mapped[len(SHARD_MAGIC) + 8 : len(SHARD_MAGIC) + 8 + hlen]
    )
    base = len(SHARD_MAGIC) + 8 + hlen
    base = -(-base // BLOB_ALIGN) * BLOB_ALIGN

    columns: dict[str, np.ndarray] = {}
    for entry in header["columns"]:
        columns[entry["key"]] = np.frombuffer(
            mapped,
            dtype=np.dtype(entry["dtype"]),
            count=entry["count"],
            offset=base + entry["offset"],
        )
    meta_start = base + header["meta_offset"]
    snapshot, tree = pickle.loads(
        mapped[meta_start : meta_start + header["meta_nbytes"]]
    )

    return unpack_result(columns), snapshot, tree
