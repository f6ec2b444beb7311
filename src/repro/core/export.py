"""Artifact export: versioned JSON documents on disk.

:func:`write_artifact_json` / :func:`write_artifacts_json` write the
registry's versioned JSON documents through the one canonical encoder,
so files produced here are bit-identical to the same artifacts fetched
from the service or the ``ddoscovery artifact`` CLI.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.artifacts import artifact_json_bytes, artifact_names
from repro.core.study import Study


def write_artifact_json(study: Study, name: str, path: str | Path) -> Path:
    """Write one registered artifact as canonical JSON bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(artifact_json_bytes(study.artifact(name)))
    return path


def write_artifacts_json(
    study: Study, out_dir: str | Path, names: list[str] | None = None
) -> list[Path]:
    """Write ``<name>.json`` per artifact into ``out_dir`` (all by default)."""
    out_dir = Path(out_dir)
    return [
        write_artifact_json(study, name, out_dir / f"{name}.json")
        for name in (names if names is not None else artifact_names())
    ]
