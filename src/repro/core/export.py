"""Report export: markdown bundles and versioned JSON artifacts.

:func:`build_markdown_report` bundles every rendered artefact of a study
into one self-contained markdown document — the shape of report a
downstream consumer of a real multi-observatory feed would circulate.
:func:`write_artifact_json` / :func:`write_artifacts_json` write the
registry's versioned JSON documents through the one canonical encoder,
so files produced here are bit-identical to the same artifacts fetched
from the service or the ``ddoscovery artifact`` CLI.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.artifacts import artifact_json_bytes, artifact_names
from repro.core.report import render_all
from repro.core.study import Study
from repro.industry.taxonomy import render_taxonomy

#: Section order and headings for the exported document.
_SECTIONS: tuple[tuple[str, str], ...] = (
    ("T1", "Table 1 — Trend classification"),
    ("T2", "Table 2 — Observatories"),
    ("T3", "Table 3 — Industry documents"),
    ("T4", "Table 4 — Top target ASes"),
    ("F2", "Figure 2 — Direct-path trends"),
    ("F3", "Figure 3 — Reflection-amplification trends"),
    ("F4", "Figure 4 — All series heatmap"),
    ("F5", "Figure 5 — Attack-class shares"),
    ("F6", "Figure 6 — Correlation matrices"),
    ("F7", "Figure 7 — Target UpSet decomposition"),
    ("F8", "Figure 8 — Highly-visible targets"),
    ("F9", "Figure 9 — Netscout federation"),
    ("F10", "Figure 10 — Target overlap over time"),
    ("F12", "Figure 12 — NewKid"),
    ("F13", "Figure 13 — Akamai federation"),
    ("F14", "Figure 14 — Quarterly correlations"),
    ("S3", "Section 3 — Industry survey"),
    ("S73", "Section 7.3 — Per-protocol honeypot composition"),
)


def build_markdown_report(study: Study, *, include_taxonomy: bool = True) -> str:
    """The full study as one markdown document."""
    rendered = render_all(study)
    lines = [
        "# DDoScovery reproduction report",
        "",
        f"- study window: {study.calendar.start} .. {study.calendar.end} "
        f"({study.calendar.n_weeks} weeks)",
        f"- seed: {study.config.seed}",
        f"- observatories: {len(study.observatories.all())}",
        f"- attack records: "
        f"{sum(len(obs) for obs in study.observations.values())}",
        "",
    ]
    for key, heading in _SECTIONS:
        lines.append(f"## {heading}")
        lines.append("")
        lines.append("```text")
        lines.append(rendered[key])
        lines.append("```")
        lines.append("")

    if include_taxonomy:
        lines.append("## Appendix C — Literature taxonomy")
        lines.append("")
        lines.append("```text")
        lines.append(render_taxonomy())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def write_markdown_report(study: Study, path: str | Path, **kwargs) -> Path:
    """Write :func:`build_markdown_report` output to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(build_markdown_report(study, **kwargs), encoding="utf-8")
    return path


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
