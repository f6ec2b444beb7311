"""The artifact registry: one enumerable public surface for study outputs.

Every table and figure of the paper (plus the derived headline and
fingerprint documents) is registered here under a stable name —
``"fig2_trends"``, ``"table2"``, ``"federation"``, … — together with

* an **extractor** producing the rich Python result from a
  :class:`~repro.core.study.Study`,
* a **payload converter** reducing that result to plain JSON types, and
* a **versioned mini JSON schema** plus the **paper anchor** the
  artifact reproduces.

The registry is the single source of truth for the service
(:mod:`repro.service`), the CLI (``ddoscovery artifact``), and library
users (``Study.artifact(name)``).  Envelopes contain no timestamps
and serialise through one canonical encoder
(:func:`artifact_json_bytes`), so the same configuration yields
bit-identical bytes from every entry point — the property the
``make serve-smoke`` harness and the service tests pin down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (study -> artifacts)
    from repro.core.study import Study

#: Bumped when the envelope layout (not a single artifact's data block)
#: changes.
ARTIFACT_ENVELOPE_VERSION = 1

#: Envelope keys every artifact document carries.
ENVELOPE_REQUIRED = (
    "schema_version",
    "envelope_version",
    "artifact",
    "title",
    "paper_anchor",
    "config_fingerprint",
    "window",
    "n_weeks",
    "seed",
    "data",
)


# -- JSON coercion helpers -----------------------------------------------------


def _floats(array: Any) -> list[float]:
    return [float(value) for value in np.asarray(array).ravel().tolist()]


def _matrix(array: np.ndarray) -> list[list[float]]:
    return [[float(value) for value in row] for row in np.asarray(array).tolist()]


def _series_payload(weekly) -> dict[str, Any]:
    """One WeeklySeries as JSON: raw counts, normalised, per-start slopes."""
    return {
        "weekly_counts": _floats(weekly.counts),
        "normalized": _floats(weekly.normalized),
        "slope_per_year_by_start": {
            str(year): float(line.slope_per_year)
            for year, line in weekly.trend_lines_by_year().items()
        },
    }


# -- payload converters (rich result -> JSON data block) -----------------------


def _trend_figure_payload(figure) -> dict[str, Any]:
    return {
        "attack_class": figure.attack_class.label,
        "takedown_weeks": [int(week) for week in figure.takedown_weeks],
        "series": {
            label: _series_payload(weekly)
            for label, weekly in figure.series.items()
        },
    }


def _heatmap_payload(figure) -> dict[str, Any]:
    return {"labels": list(figure.labels), "matrix": _matrix(figure.matrix)}


def _shares_payload(shares) -> dict[str, Any]:
    return {
        "label": shares.label,
        "dp_share": _floats(shares.dp_share),
        "ra_share": _floats(shares.ra_share),
        "last_crossing_quarter": shares.last_crossing_quarter(),
    }


def _correlation_matrix_payload(matrix) -> dict[str, Any]:
    return {
        "labels": list(matrix.labels),
        "method": matrix.method,
        "coefficients": _matrix(matrix.coefficients),
        "p_values": _matrix(matrix.p_values),
    }


def _correlation_payload(figure) -> dict[str, Any]:
    return {
        "normalized": _correlation_matrix_payload(figure.normalized),
        "smoothed": _correlation_matrix_payload(figure.smoothed),
        "pearson_normalized": _correlation_matrix_payload(
            figure.pearson_normalized
        ),
    }


def _upset_payload(result) -> dict[str, Any]:
    return {
        "set_names": list(result.set_names),
        "set_sizes": {name: int(size) for name, size in result.set_sizes.items()},
        "set_shares": {
            name: float(share) for name, share in result.set_shares.items()
        },
        "universe_size": int(result.universe_size),
        "rows": [
            {
                "members": list(row.members),
                "count": int(row.count),
                "share": float(row.share),
            }
            for row in result.rows
        ],
    }


def _highly_visible_payload(result) -> dict[str, Any]:
    return {
        "n_tuples": len(result.keys),
        "n_distinct_ips": len(result.distinct_ips),
        "share_of_universe": float(result.share_of_universe),
        "new_per_week": _floats(result.new_per_week),
        "recurring_per_week": _floats(result.recurring_per_week),
        "cdf": _floats(result.cdf),
    }


def _federation_payload(result) -> dict[str, Any]:
    return {
        "industry_name": result.industry_name,
        "baseline_size": int(result.baseline_size),
        "forward": [
            {
                "members": list(row.members),
                "academic_count": int(row.academic_count),
                "confirmed_count": int(row.confirmed_count),
                "share": float(row.share),
            }
            for row in result.forward
        ],
        "reverse": {name: float(share) for name, share in result.reverse.items()},
        "reverse_union": float(result.reverse_union),
    }


def _overlap_payload(figures) -> dict[str, Any]:
    return {
        group: {
            "label_a": figure.label_a,
            "label_b": figure.label_b,
            "weekly_a": _floats(figure.weekly_a),
            "weekly_b": _floats(figure.weekly_b),
            "weekly_shared": _floats(figure.weekly_shared),
            "union_share_of_universe": float(figure.union_share_of_universe),
            "exclusive_share_of_universe": float(
                figure.exclusive_share_of_universe
            ),
        }
        for group, figure in figures.items()
    }


def _weekly_series_payload(weekly) -> dict[str, Any]:
    return {"label": weekly.label, **_series_payload(weekly)}


def _quarterly_payload(figure) -> dict[str, Any]:
    return {
        "pairs": [
            {
                "pair": [a, b],
                "minimum": float(stats.minimum),
                "q1": float(stats.q1),
                "median": float(stats.median),
                "q3": float(stats.q3),
                "maximum": float(stats.maximum),
                "mean": float(stats.mean),
                "n": int(stats.n),
            }
            for (a, b), stats in figure.pairs.items()
        ]
    }


def _table1_payload(rows) -> dict[str, Any]:
    return {
        "rows": [
            {
                "attack_type": row.attack_type,
                "observatory_trends": {
                    label: {
                        "symbol": classification.symbol,
                        "relative_change": float(classification.relative_change),
                        "horizon_weeks": int(classification.horizon_weeks),
                    }
                    for label, classification in row.observatory_trends.items()
                },
                "industry": {
                    "increase": int(row.industry.increase),
                    "decrease": int(row.industry.decrease),
                    "steady": int(row.industry.steady),
                    "unspecified": int(row.industry.unspecified),
                    "total": int(row.industry.total),
                },
            }
            for row in rows
        ]
    }


def _table2_payload(rows) -> dict[str, Any]:
    return {
        "rows": [
            {
                "platform": row.platform,
                "type": row.type,
                "attack": row.attack,
                "coverage": row.coverage,
                "flow_identifier": row.flow_identifier,
                "timeout": row.timeout,
                "threshold": row.threshold,
            }
            for row in rows
        ]
    }


def _table4_payload(rows) -> dict[str, Any]:
    return {
        "rows": [
            {
                "rank": int(row.rank),
                "name": row.name,
                "asn": int(row.asn),
                "tuples": int(row.tuples),
                "share": float(row.share),
                "kind": row.kind,
            }
            for row in rows
        ]
    }


# -- mini JSON schemas for the data blocks -------------------------------------

_SERIES_SCHEMA = {
    "type": "object",
    "required": ["weekly_counts", "normalized", "slope_per_year_by_start"],
    "properties": {
        "weekly_counts": {"type": "array", "items": {"type": "number"}},
        "normalized": {"type": "array", "items": {"type": "number"}},
        "slope_per_year_by_start": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
}

_TREND_SCHEMA = {
    "type": "object",
    "required": ["attack_class", "takedown_weeks", "series"],
    "properties": {
        "attack_class": {"type": "string"},
        "takedown_weeks": {"type": "array", "items": {"type": "integer"}},
        "series": {"type": "object", "additionalProperties": _SERIES_SCHEMA},
    },
}

_MATRIX_SCHEMA = {
    "type": "array",
    "items": {"type": "array", "items": {"type": "number"}},
}

_CORRELATION_MATRIX_SCHEMA = {
    "type": "object",
    "required": ["labels", "method", "coefficients", "p_values"],
    "properties": {
        "labels": {"type": "array", "items": {"type": "string"}},
        "method": {"type": "string"},
        "coefficients": _MATRIX_SCHEMA,
        "p_values": _MATRIX_SCHEMA,
    },
}

_FEDERATION_SCHEMA = {
    "type": "object",
    "required": [
        "industry_name",
        "baseline_size",
        "forward",
        "reverse",
        "reverse_union",
    ],
    "properties": {
        "industry_name": {"type": "string"},
        "baseline_size": {"type": "integer"},
        "forward": {"type": "array", "items": {"type": "object"}},
        "reverse": {"type": "object", "additionalProperties": {"type": "number"}},
        "reverse_union": {"type": "number"},
    },
}

_ROWS_SCHEMA = {
    "type": "object",
    "required": ["rows"],
    "properties": {"rows": {"type": "array", "items": {"type": "object"}}},
}


# -- the registry --------------------------------------------------------------


@dataclass(frozen=True)
class ArtifactSpec:
    """One registered study artifact.

    ``build`` produces the rich in-memory result, which
    :meth:`Study.artifact_result` calls once per study and keeps;
    ``payload`` reduces it to JSON-serialisable types validated by
    ``schema``;
    ``schema_version`` versions that data block independently of the
    envelope.
    """

    name: str
    title: str
    paper_anchor: str
    description: str
    schema_version: int
    build: Callable[["Study"], Any]
    payload: Callable[[Any], dict[str, Any]]
    schema: dict[str, Any]

    def data(self, study: "Study") -> dict[str, Any]:
        """The JSON data block for one study."""
        return self.payload(study.artifact_result(self.name))

    def describe(self) -> dict[str, Any]:
        """The registry-listing row (no study required)."""
        return {
            "name": self.name,
            "title": self.title,
            "paper_anchor": self.paper_anchor,
            "description": self.description,
            "schema_version": self.schema_version,
        }


def _spec(
    name: str,
    title: str,
    anchor: str,
    description: str,
    build: Callable[["Study"], Any],
    payload: Callable[[Any], dict[str, Any]],
    schema: dict[str, Any],
) -> tuple[str, ArtifactSpec]:
    return name, ArtifactSpec(
        name=name,
        title=title,
        paper_anchor=anchor,
        description=description,
        schema_version=1,
        build=build,
        payload=payload,
        schema=schema,
    )


#: The declarative registry, in the paper's presentation order.
ARTIFACTS: Mapping[str, ArtifactSpec] = dict(
    [
        _spec(
            "table1",
            "Trend classification",
            "Table 1",
            "Trend symbols per observatory plus industry survey counts.",
            lambda study: study._table1(),
            _table1_payload,
            _ROWS_SCHEMA,
        ),
        _spec(
            "table2",
            "Observatory inventory",
            "Table 2",
            "Platform, coverage, and detection thresholds per observatory.",
            lambda study: study._table2(),
            _table2_payload,
            _ROWS_SCHEMA,
        ),
        _spec(
            "table4",
            "Top target ASes",
            "Table 4",
            "Top-10 origin ASes among highly-visible targets.",
            lambda study: study._table4(),
            _table4_payload,
            _ROWS_SCHEMA,
        ),
        _spec(
            "fig2_trends",
            "Direct-path trends",
            "Figure 2",
            "Normalised weekly direct-path counts with per-start slopes.",
            lambda study: study._figure2(),
            _trend_figure_payload,
            _TREND_SCHEMA,
        ),
        _spec(
            "fig3_trends",
            "Reflection-amplification trends",
            "Figure 3",
            "Normalised weekly reflection-amplification counts with "
            "takedown markers.",
            lambda study: study._figure3(),
            _trend_figure_payload,
            _TREND_SCHEMA,
        ),
        _spec(
            "fig4_heatmap",
            "All-series heatmap",
            "Figure 4",
            "All ten normalised series stacked into one matrix.",
            lambda study: study._figure4(),
            _heatmap_payload,
            {
                "type": "object",
                "required": ["labels", "matrix"],
                "properties": {
                    "labels": {"type": "array", "items": {"type": "string"}},
                    "matrix": _MATRIX_SCHEMA,
                },
            },
        ),
        _spec(
            "fig5_shares",
            "Attack-class shares",
            "Figure 5",
            "Netscout weekly RA/DP share and the last 50% crossing.",
            lambda study: study._figure5(),
            _shares_payload,
            {
                "type": "object",
                "required": [
                    "label",
                    "dp_share",
                    "ra_share",
                    "last_crossing_quarter",
                ],
                "properties": {
                    "label": {"type": "string"},
                    "dp_share": {"type": "array", "items": {"type": "number"}},
                    "ra_share": {"type": "array", "items": {"type": "number"}},
                    "last_crossing_quarter": {"type": ["string", "null"]},
                },
            },
        ),
        _spec(
            "fig6_correlation",
            "Correlation matrices",
            "Figure 6",
            "Spearman (raw + EWMA) and Pearson matrices with p-values.",
            lambda study: study._figure6(),
            _correlation_payload,
            {
                "type": "object",
                "required": ["normalized", "smoothed", "pearson_normalized"],
                "properties": {
                    "normalized": _CORRELATION_MATRIX_SCHEMA,
                    "smoothed": _CORRELATION_MATRIX_SCHEMA,
                    "pearson_normalized": _CORRELATION_MATRIX_SCHEMA,
                },
            },
        ),
        _spec(
            "fig7_upset",
            "Target UpSet decomposition",
            "Figure 7",
            "Exclusive-intersection decomposition of academic target "
            "tuples.",
            lambda study: study._figure7(),
            _upset_payload,
            {
                "type": "object",
                "required": [
                    "set_names",
                    "set_sizes",
                    "set_shares",
                    "universe_size",
                    "rows",
                ],
                "properties": {
                    "set_names": {"type": "array", "items": {"type": "string"}},
                    "universe_size": {"type": "integer"},
                    "rows": {"type": "array", "items": {"type": "object"}},
                },
            },
        ),
        _spec(
            "fig8_highly_visible",
            "Highly-visible targets",
            "Figure 8",
            "The all-observatory target intersection over time.",
            lambda study: study._figure8(),
            _highly_visible_payload,
            {
                "type": "object",
                "required": [
                    "n_tuples",
                    "n_distinct_ips",
                    "share_of_universe",
                    "new_per_week",
                    "recurring_per_week",
                    "cdf",
                ],
                "properties": {
                    "n_tuples": {"type": "integer"},
                    "share_of_universe": {"type": "number"},
                },
            },
        ),
        _spec(
            "federation",
            "Netscout federation",
            "Figure 9",
            "Netscout confirmation of academic target sets, both "
            "directions.",
            lambda study: study._figure9(),
            _federation_payload,
            _FEDERATION_SCHEMA,
        ),
        _spec(
            "fig10_overlap",
            "Target overlap over time",
            "Figure 10",
            "Weekly target overlap of the telescope and honeypot pairs.",
            lambda study: study._figure10(),
            _overlap_payload,
            {"type": "object", "additionalProperties": {"type": "object"}},
        ),
        _spec(
            "fig12_newkid",
            "NewKid single-sensor series",
            "Appendix D, Figure 12",
            "The erratic single-sensor honeypot series.",
            lambda study: study._figure12(),
            _weekly_series_payload,
            {
                "type": "object",
                "required": ["label", "weekly_counts", "normalized"],
                "properties": {"label": {"type": "string"}},
            },
        ),
        _spec(
            "federation_akamai",
            "Akamai federation",
            "Appendix G, Figure 13",
            "Akamai confirmation of academic target sets.",
            lambda study: study._figure13(),
            _federation_payload,
            _FEDERATION_SCHEMA,
        ),
        _spec(
            "fig14_quarterly",
            "Quarterly correlations",
            "Appendix F, Figure 14",
            "Distribution of quarterly pairwise correlations.",
            lambda study: study._figure14(),
            _quarterly_payload,
            {
                "type": "object",
                "required": ["pairs"],
                "properties": {
                    "pairs": {"type": "array", "items": {"type": "object"}}
                },
            },
        ),
        _spec(
            "headline",
            "Headline findings",
            "Sections 5-7",
            "The study's headline findings in one document.",
            lambda study: study.headline(),
            lambda headline: dict(headline),
            {"type": "object"},
        ),
        _spec(
            "fingerprints",
            "Golden fingerprints",
            "(regression layer)",
            "sha256 fingerprints of the study's key derived arrays.",
            lambda study: study.fingerprints(),
            lambda fingerprints: {"fingerprints": dict(fingerprints)},
            {
                "type": "object",
                "required": ["fingerprints"],
                "properties": {
                    "fingerprints": {
                        "type": "object",
                        "additionalProperties": {"type": "string"},
                    }
                },
            },
        ),
    ]
)


def artifact_names() -> list[str]:
    """The registered artifact names, in presentation order."""
    return list(ARTIFACTS)


def artifact_spec(name: str) -> ArtifactSpec:
    """One registered spec; raises ``KeyError`` with the valid names."""
    try:
        return ARTIFACTS[name]
    except KeyError:
        raise KeyError(
            f"unknown artifact {name!r}; available: {artifact_names()}"
        ) from None


def registry_listing() -> list[dict[str, Any]]:
    """The enumerable public registry (service ``GET /v1/artifacts``)."""
    return [spec.describe() for spec in ARTIFACTS.values()]


# -- envelopes -----------------------------------------------------------------


def envelope(
    name: str,
    data: dict[str, Any],
    *,
    title: str,
    paper_anchor: str | None,
    schema_version: int,
    config_fingerprint: str | None,
    window: str | None,
    n_weeks: int | None,
    seed: int | None,
) -> dict[str, Any]:
    """A versioned artifact document (no timestamps: deterministic)."""
    return {
        "schema_version": int(schema_version),
        "envelope_version": ARTIFACT_ENVELOPE_VERSION,
        "artifact": name,
        "title": title,
        "paper_anchor": paper_anchor,
        "config_fingerprint": config_fingerprint,
        "window": window,
        "n_weeks": n_weeks,
        "seed": seed,
        "data": data,
    }


def study_envelope(study: "Study", name: str) -> dict[str, Any]:
    """The full artifact document for one study."""
    spec = artifact_spec(name)
    return envelope(
        name,
        spec.data(study),
        title=spec.title,
        paper_anchor=spec.paper_anchor,
        schema_version=spec.schema_version,
        config_fingerprint=study.config_fingerprint,
        window=f"{study.calendar.start}..{study.calendar.end}",
        n_weeks=int(study.calendar.n_weeks),
        seed=int(study.config.seed),
    )


def artifact_json_bytes(document: dict[str, Any]) -> bytes:
    """The one canonical serialisation of an artifact document.

    Sorted keys, two-space indent, trailing newline, UTF-8 — shared by
    the CLI, the service, and the export layer so identical
    configurations produce bit-identical files everywhere.  The bytes
    are exactly ``json.dumps(document, indent=2, sort_keys=True,
    ensure_ascii=False) + "\n"``, but CPython runs that through its
    pure-Python encoder, because its C encoder takes no ``indent``;
    :func:`_encode` writes the same text with the C encoder doing each
    flat list of numbers.  (A circular document raises
    ``RecursionError`` here, where json raises ``ValueError``.)
    """
    chunks: list[str] = []
    _encode(document, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks).encode("utf-8")


#: json's C encoder, which it uses only without ``indent``: it renders
#: a flat list of numbers compactly, and since the text of a number
#: holds no comma, one ``str.replace`` then indents it.
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode
_FLAT_ITEM_TYPES = frozenset((int, float))


def _encode(value: Any, newline: str, chunks: list[str]) -> None:
    """Append json's ``indent=2, sort_keys=True`` text of ``value``;
    ``newline`` is a newline plus the indent of the line ``value`` is on."""
    if isinstance(value, str):
        chunks.append(encode_basestring(value))
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            text = key if isinstance(key, str) else _scalar_text(key)
            if text is None:
                raise TypeError(
                    "keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}"
                )
            chunks.append(separator + encode_basestring(text) + ": ")
            separator = "," + inner
            _encode(item, inner, chunks)
        chunks.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        if _FLAT_ITEM_TYPES.issuperset(map(type, value)):
            chunks.append(
                "["
                + inner
                + _encode_compact(value)[1:-1].replace(",", "," + inner)
                + newline
                + "]"
            )
            return
        separator = "[" + inner
        for item in value:
            chunks.append(separator)
            separator = "," + inner
            _encode(item, inner, chunks)
        chunks.append(newline + "]")
    else:
        text = _scalar_text(value)
        if text is None:
            raise TypeError(
                f"Object of type {value.__class__.__name__} is not JSON serializable"
            )
        chunks.append(text)


def _scalar_text(value: Any) -> str | None:
    """json's text of ``None``, a bool, an int or a float; ``None`` for
    any other type.  Subclasses of int and float are written as their
    base type writes them (an ``IntEnum`` as its number)."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    return None
