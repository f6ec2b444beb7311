"""The one columnar file format: study cache entries and shard transport.

A file holds one simulation result as raw, aligned column blobs in the
flat :func:`~repro.core.io.pack_result` layout, and the reader wraps
them in read-only numpy views of a memory mapping without copying them.
Two kinds of file use it:

* **cache entries** (:mod:`repro.core.cache`) carry the entry's
  ``{schema, fingerprint, observatories}`` as JSON ``meta`` in the
  header;
* **transport files**, which a pool worker of :mod:`repro.util.parallel`
  writes for the collector instead of pickling its columns through the
  result queue, also carry the worker's pickled ``(snapshot, tree)``
  observability payload.  Only :func:`read_shard` unpickles it, so a
  cache load never calls ``pickle``.

Layout (all integers little-endian):

========  ========  ====================================================
field     size      content
========  ========  ====================================================
magic     8 bytes   ``b"RSHARD02"``
hlen      8 bytes   uint64 — JSON header length
header    hlen      JSON column directory, ``meta``, blob location
columns   aligned   raw column blobs, each 64-byte aligned
blob      ...       transport files only: pickled ``(snapshot, tree)``
crc       4 bytes   uint32 — CRC32 of every byte between magic and crc
========  ========  ====================================================

The reader checks the magic and the checksum before it parses the
header or builds any view, so a flipped byte anywhere (a column offset
in the header included) fails the read instead of yielding shifted
columns.  A file's size depends on its columns and meta alone: the
pickled span timings are fixed-width floats.

Files are written atomically (temp + rename in the same directory) and
only ever replaced by rename: a live mapping faults if its file is
truncated in place, while a mapping of a replaced or unlinked file stays
valid.  The format is not an archive: writer and reader run the same code
version, and a file of another layout simply fails the magic check.
"""

from __future__ import annotations

import json
import mmap
import pickle
import zlib
from pathlib import Path

import numpy as np

from repro.attacks.events import AttackClass
from repro.core.io import pack_result, unpack_result
from repro.observatories.base import Observations
from repro.util.atomic import atomic_write

#: Format magic; the trailing digits version the layout.
SHARD_MAGIC = b"RSHARD02"

#: Column blobs start on multiples of this (cache-line / SIMD friendly).
BLOB_ALIGN = 64

#: Bytes of the magic plus the header length.
_PREFIX = len(SHARD_MAGIC) + 8

#: Bytes of the trailing checksum.
_CRC = 4

Result = tuple[dict[str, Observations], dict[AttackClass, np.ndarray]]


def _aligned(offset: int) -> int:
    return -(-offset // BLOB_ALIGN) * BLOB_ALIGN


def write_result(
    path: str | Path,
    sinks: dict[str, Observations],
    ground_truth: dict[AttackClass, np.ndarray],
    *,
    meta: dict | None = None,
    blob: bytes = b"",
) -> Path:
    """Write one simulation result atomically; returns the final path.

    ``meta`` is stored as JSON in the header, ``blob`` as opaque bytes
    after the columns.
    """
    path = Path(path)
    columns = [
        (key, np.ascontiguousarray(column))
        for key, column in pack_result(sinks, ground_truth).items()
    ]
    directory: list[dict] = []
    offset = 0  # relative to the first blob
    for key, column in columns:
        offset = _aligned(offset)
        directory.append(
            {
                "key": key,
                "dtype": column.dtype.str,
                "offset": offset,
                "count": len(column),
            }
        )
        offset += column.nbytes
    blob_offset = _aligned(offset)
    header = json.dumps(
        {
            "columns": directory,
            "meta": meta or {},
            "blob": [blob_offset, len(blob)],
        }
    ).encode("utf-8")

    base = _aligned(_PREFIX + len(header))  # blobs start aligned too
    placed = [
        (base + entry["offset"], memoryview(column).cast("B"))
        for entry, (_, column) in zip(directory, columns)
    ]
    placed.append((base + blob_offset, blob))
    chunks: list[bytes | memoryview] = [len(header).to_bytes(8, "little"), header]
    cursor = _PREFIX + len(header)
    for target, data in placed:
        chunks += [bytes(target - cursor), data]
        cursor = target + len(data)

    with atomic_write(path) as handle:
        handle.write(SHARD_MAGIC)
        crc = 0
        for chunk in chunks:
            handle.write(chunk)
            crc = zlib.crc32(chunk, crc)
        handle.write(crc.to_bytes(_CRC, "little"))
    return path


def read_result(path: str | Path) -> tuple[Result, dict, bytes]:
    """Map one file and rebuild ``((sinks, ground_truth), meta, blob)``.

    The columns are read-only numpy views into the file mapping; they hold
    the mapping alive, and the file itself may be unlinked or replaced as
    soon as this returns.  A foreign, truncated or corrupted file raises
    ``ValueError`` before any view is built.
    """
    path = Path(path)
    with path.open("rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    magic = mapped[: len(SHARD_MAGIC)]
    if magic != SHARD_MAGIC or len(mapped) < _PREFIX + _CRC:
        raise ValueError(f"not a shard file: {path} (magic {magic!r})")
    stored = int.from_bytes(mapped[-_CRC:], "little")
    if zlib.crc32(memoryview(mapped)[len(SHARD_MAGIC) : -_CRC]) != stored:
        raise ValueError(f"shard file checksum mismatch: {path}")
    hlen = int.from_bytes(mapped[len(SHARD_MAGIC) : _PREFIX], "little")
    header = json.loads(mapped[_PREFIX : _PREFIX + hlen])
    base = _aligned(_PREFIX + hlen)

    columns = {
        entry["key"]: np.frombuffer(
            mapped,
            dtype=np.dtype(entry["dtype"]),
            count=entry["count"],
            offset=base + entry["offset"],
        )
        for entry in header["columns"]
    }
    blob_offset, blob_nbytes = header["blob"]
    blob = mapped[base + blob_offset : base + blob_offset + blob_nbytes]
    return unpack_result(columns), header["meta"], blob


def write_shard(
    path: str | Path,
    sinks: dict[str, Observations],
    ground_truth: dict[AttackClass, np.ndarray],
    snapshot: dict,
    tree: dict,
) -> Path:
    """Write one transport file: the result plus the worker's pickled
    ``(snapshot, tree)``; returns the final path."""
    blob = pickle.dumps((snapshot, tree), protocol=pickle.HIGHEST_PROTOCOL)
    return write_result(path, sinks, ground_truth, blob=blob)


def read_shard(path: str | Path) -> tuple[Result, dict, dict]:
    """Map one transport file: ``((sinks, ground_truth), snapshot, tree)``."""
    result, _, blob = read_result(path)
    snapshot, tree = pickle.loads(blob)
    return result, snapshot, tree
