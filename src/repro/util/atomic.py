"""Atomic file replacement: a temp file beside the target, renamed over it."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Open a binary temp file that replaces ``path`` when the block ends.

    The temp file sits in ``path``'s directory with a ``.tmp`` suffix, so
    the rename never crosses a file system.  A writer killed before the
    rename leaves the old file (or none) and at most a ``*.tmp`` beside
    it, never a torn ``path``.  Any error in the block or the rename
    removes the temp file and propagates.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        os.unlink(tmp_name)
        raise
