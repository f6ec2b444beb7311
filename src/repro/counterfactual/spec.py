"""Intervention specifications: declarative deltas over ``StudyConfig``.

An :class:`InterventionSpec` is a named, paper-anchored bundle of
:class:`InterventionOp` s — dotted ``StudyConfig`` field paths with a
``set`` / ``scale`` / ``shift`` verb — that turns a baseline study
configuration into its counterfactual twin.  Every op resolves against
the *current* value of the base config, so the same intervention applies
to any seed of an ensemble; a scalar ``strength`` interpolates between
"nothing happened" (0.0) and the full intervention (1.0), which is what
the monotonicity property of the divergence detector sweeps.

The zero-delta guarantee — the heart of the common-random-numbers
pairing — is structural: at ``strength == 0`` (or when every resolved
value equals the current one) :meth:`InterventionSpec.overrides` returns
an *empty* mapping, so :func:`~repro.sweep.spec.apply_overrides` returns
the base config **object itself**, its
:func:`~repro.core.cache.config_fingerprint` is unchanged, and both legs
of a pair resolve to the same study-cache entry — byte-identical feeds,
not merely statistically similar ones.

Ops targeting ``tuning.*`` paths are grouped into a single
:class:`~repro.observatories.tuning.ObservatoryTuning` override (the
baseline config keeps ``tuning=None``, so the field stays
fingerprint-omitted on the baseline leg).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.study import StudyConfig

#: Intervention op verbs.
OPS = ("set", "scale", "shift")

#: Document schema version for serialized interventions and reports.
WHATIF_SCHEMA_VERSION = 1

#: Mini JSON schema (``repro.obs.validate_manifest`` dialect) for one
#: serialized intervention — the "mini schema" each spec carries.
INTERVENTION_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "name",
        "title",
        "anchor",
        "description",
        "schema_version",
        "strength",
        "ops",
    ],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "title": {"type": "string"},
        "anchor": {"type": "string"},
        "description": {"type": "string"},
        "schema_version": {"type": "integer"},
        "strength": {"type": "number"},
        "ops": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["op", "path", "value"],
                "additionalProperties": False,
                "properties": {
                    "op": {"type": "string"},
                    "path": {"type": "string"},
                    "value": {},
                },
            },
        },
    },
}


@dataclass(frozen=True)
class InterventionOp:
    """One delta: a verb, a dotted config path, and its operand.

    * ``set`` — replace the field with ``value`` (non-interpolatable:
      applied whenever ``strength > 0``, dropped at 0).
    * ``scale`` — multiply the current value by
      ``1 + (value - 1) * strength`` (``value`` is the full-strength
      factor; strength 0 gives factor 1).
    * ``shift`` — add ``value * strength`` to the current value.
    """

    op: str
    path: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"op must be one of {list(OPS)}, got {self.op!r}")
        if not self.path or not all(self.path.split(".")):
            raise ValueError(f"malformed field path {self.path!r}")
        if self.op in ("scale", "shift") and not isinstance(
            self.value, (int, float)
        ):
            raise ValueError(f"{self.op} needs a numeric operand, got {self.value!r}")
        if self.op == "scale" and not self.value > 0:
            raise ValueError(f"scale factor must be positive, got {self.value!r}")


def set_op(path: str, value: Any) -> InterventionOp:
    return InterventionOp(op="set", path=path, value=value)


def scale_op(path: str, factor: float) -> InterventionOp:
    return InterventionOp(op="scale", path=path, value=float(factor))


def shift_op(path: str, delta: float) -> InterventionOp:
    return InterventionOp(op="shift", path=path, value=float(delta))


@dataclass(frozen=True)
class InterventionSpec:
    """A named counterfactual: what changed, per which paper, how."""

    name: str
    title: str
    #: sibling-paper / section anchor motivating the intervention.
    anchor: str
    description: str
    ops: tuple[InterventionOp, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an intervention needs a name")
        if not self.ops:
            raise ValueError(f"intervention {self.name!r} has no ops")
        paths = [op.path for op in self.ops]
        if len(set(paths)) != len(paths):
            raise ValueError(
                f"intervention {self.name!r} has duplicate op paths: {paths}"
            )

    # -- resolution --------------------------------------------------------------

    def overrides(
        self, base: "StudyConfig", strength: float = 1.0
    ) -> dict[str, Any]:
        """Resolve the ops against ``base`` into concrete overrides.

        Returns a mapping fit for
        :func:`repro.sweep.spec.apply_overrides`.  Identity deltas are
        dropped, so a zero-strength (or all-no-op) intervention resolves
        to ``{}`` — the structural zero-delta guarantee.
        """
        if strength < 0:
            raise ValueError(f"strength must be >= 0, got {strength}")
        resolved: dict[str, Any] = {}
        tuning_fields: dict[str, Any] = {}
        for op in self.ops:
            if op.path.startswith("tuning."):
                field_name = op.path.split(".", 1)[1]
                current = _tuning_default(field_name)
                value = _resolve(op, current, strength)
                if value != current:
                    tuning_fields[field_name] = value
                continue
            current = _current_value(base, op.path)
            value = _resolve(op, current, strength)
            if value != current:
                resolved[op.path] = value
        if tuning_fields:
            from repro.observatories.tuning import ObservatoryTuning

            if base.tuning is not None:
                raise ValueError(
                    "tuning.* interventions need a baseline with tuning=None"
                )
            resolved["tuning"] = ObservatoryTuning(**tuning_fields)
        return resolved

    # -- serialization -----------------------------------------------------------

    def to_document(self, strength: float = 1.0) -> dict[str, Any]:
        """JSON document of this intervention (validated by
        :data:`INTERVENTION_SCHEMA`)."""
        return {
            "name": self.name,
            "title": self.title,
            "anchor": self.anchor,
            "description": self.description,
            "schema_version": WHATIF_SCHEMA_VERSION,
            "strength": float(strength),
            "ops": [
                {"op": op.op, "path": op.path, "value": op.value}
                for op in self.ops
            ],
        }


def validate_intervention(document: Any) -> list[str]:
    """Validate a serialized intervention against its mini schema."""
    from repro.obs import validate_manifest

    return validate_manifest(document, INTERVENTION_SCHEMA)


# -- helpers -------------------------------------------------------------------


def _current_value(config: "StudyConfig", path: str) -> Any:
    """Walk a dotted path on the (frozen, nested) config, failing loudly."""
    value: Any = config
    walked = []
    for segment in path.split("."):
        walked.append(segment)
        if not dataclasses.is_dataclass(value) or isinstance(value, type):
            raise ValueError(
                f"intervention path {path!r}: "
                f"{'.'.join(walked[:-1])!r} is not a dataclass"
            )
        if not hasattr(value, segment):
            raise ValueError(
                f"intervention path {path!r}: unknown field {segment!r} on "
                f"{type(value).__name__}"
            )
        value = getattr(value, segment)
        if value is None and walked != path.split("."):
            raise ValueError(
                f"intervention path {path!r}: {'.'.join(walked)!r} is None "
                "on the base config"
            )
    return value


def _tuning_default(field_name: str) -> Any:
    """The neutral value of one ``ObservatoryTuning`` field."""
    from repro.observatories.tuning import ObservatoryTuning

    names = {spec.name for spec in dataclasses.fields(ObservatoryTuning)}
    if field_name not in names:
        raise ValueError(
            f"unknown tuning field {field_name!r} (fields: {sorted(names)})"
        )
    return getattr(ObservatoryTuning(), field_name)


def _resolve(op: InterventionOp, current: Any, strength: float) -> Any:
    """One op's concrete post-intervention value at a given strength."""
    if op.op == "set":
        return op.value if strength > 0 else current
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        raise ValueError(
            f"{op.op} op on {op.path!r} needs a numeric field, "
            f"got {current!r}"
        )
    if op.op == "scale":
        value = current * (1.0 + (float(op.value) - 1.0) * strength)
    else:  # shift
        value = current + float(op.value) * strength
    # Week indices and counts are ints on the config; keep them ints so
    # downstream validation (and fingerprint canonicalisation) see the
    # type the field was declared with.
    if isinstance(current, int):
        return int(round(value))
    return float(value)
