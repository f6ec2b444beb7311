"""Declarative scenario specifications for multi-run sweeps.

A :class:`ScenarioSpec` describes an *ensemble* of studies as a base
:class:`~repro.core.study.StudyConfig` plus axes of overrides — seed
ensembles, rate ladders, plan sizes, intervention toggles — expanded
into a deterministic list of :class:`SweepCell` s.  Expansion is pure
(no RNG, no I/O): the same spec always yields the same cells in the
same order, with the same cell ids, which is what lets the run ledger
(:mod:`repro.sweep.ledger`) resume an interrupted sweep exactly.

Overrides are dotted ``StudyConfig`` field paths (``"seed"``,
``"dp_per_day"``, ``"plan.tail_as_count"``, ``"generator.…"``), applied
with :func:`dataclasses.replace` so nested configs stay frozen.

Example::

    spec = ScenarioSpec(
        name="rates",
        base=StudyConfig(seed=0),
        axes=(
            seed_axis((0, 1, 2)),
            axis("dp", "dp_per_day", (45.0, 90.0)),
        ),
    )
    for cell in expand(spec):
        print(cell.cell_id, cell.labels, cell.config.dp_per_day)
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.core.cache import canonical, config_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.study import StudyConfig

#: Bumped when spec expansion semantics change, so old sweep ledgers
#: miss instead of resuming against differently-numbered cells.
SWEEP_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AxisPoint:
    """One named value along an axis: a label plus config overrides."""

    label: str
    overrides: tuple[tuple[str, object], ...]

    @staticmethod
    def of(label: str, overrides: Mapping[str, object]) -> "AxisPoint":
        return AxisPoint(label=str(label), overrides=tuple(overrides.items()))


@dataclass(frozen=True)
class Axis:
    """One sweep dimension: an ordered tuple of points."""

    name: str
    points: tuple[AxisPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError(f"axis {self.name!r} has no points")
        labels = [point.label for point in self.points]
        if len(set(labels)) != len(labels):
            raise ValueError(f"axis {self.name!r} has duplicate labels: {labels}")


def axis(name: str, field_path: str, values: Iterable[object]) -> Axis:
    """A single-field axis; point labels are ``str(value)``."""
    return Axis(
        name=name,
        points=tuple(
            AxisPoint.of(value, {field_path: value}) for value in values
        ),
    )


def seed_axis(seeds: Iterable[int]) -> Axis:
    """A seed ensemble axis.

    Each point also re-seeds the Internet plan (``plan.seed``), matching
    the convention of the seed-robustness benchmark: a new seed means a
    new world, not just new attack draws on the same plan.  Only valid
    against a base config with an explicit ``plan``.
    """
    return Axis(
        name="seed",
        points=tuple(
            AxisPoint.of(seed, {"seed": int(seed), "plan.seed": int(seed)})
            for seed in seeds
        ),
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative multi-run experiment over ``StudyConfig`` space.

    The cells are the cartesian product of all axes, first axis slowest.
    """

    name: str
    base: "StudyConfig"
    axes: tuple[Axis, ...] = ()
    description: str = ""
    #: Source-paper anchor the spec reproduces (e.g. ``"Hide&Seek §5"``).
    #: Presentation-only, like ``description``: excluded from
    #: :func:`spec_fingerprint`, so annotating a spec never invalidates
    #: its sweep ledger.
    anchor: str = ""

    def __post_init__(self) -> None:
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names: {names}")


@dataclass(frozen=True)
class SweepCell:
    """One expanded scenario: a point in the spec's axis space."""

    index: int
    cell_id: str
    labels: tuple[tuple[str, str], ...]  # (axis name, point label), axis order
    config: "StudyConfig"
    config_fingerprint: str

    @property
    def label_map(self) -> dict[str, str]:
        return dict(self.labels)

    def describe(self) -> str:
        """``seed=1 scale=small`` — the cell's coordinates, one line."""
        if not self.labels:
            return "(base)"
        return " ".join(f"{name}={label}" for name, label in self.labels)


# -- override application ------------------------------------------------------


def apply_overrides(
    config: "StudyConfig", overrides: Mapping[str, object]
) -> "StudyConfig":
    """Return a config with dotted field paths replaced.

    ``{"seed": 3, "plan.tail_as_count": 80}`` — every path must name an
    existing dataclass field; intermediate segments must be dataclass
    values (and not ``None``), so typos fail loudly at expansion time
    rather than silently producing the base scenario.
    """
    updated = config
    for path, value in overrides.items():
        updated = _apply_one(updated, path.split("."), value, path)
    return updated


def _apply_one(obj, segments: Sequence[str], value, full_path: str):
    head = segments[0]
    if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
        raise ValueError(
            f"override {full_path!r}: {head!r} is not inside a dataclass"
        )
    names = {f.name for f in dataclasses.fields(obj)}
    if head not in names:
        raise ValueError(
            f"override {full_path!r}: unknown field {head!r} on "
            f"{type(obj).__name__} (fields: {sorted(names)})"
        )
    if len(segments) == 1:
        return dataclasses.replace(obj, **{head: value})
    inner = getattr(obj, head)
    if inner is None:
        raise ValueError(
            f"override {full_path!r}: {head!r} is None on "
            f"{type(obj).__name__}; the base config must set it explicitly"
        )
    return dataclasses.replace(
        obj, **{head: _apply_one(inner, segments[1:], value, full_path)}
    )


# -- expansion -----------------------------------------------------------------


def expand(spec: ScenarioSpec) -> tuple[SweepCell, ...]:
    """Expand a spec into its deterministic cell list.

    Cell order — and with it every cell index and id — depends only on
    the spec, never on jobs, resume state, or the environment.
    """
    cells = []
    combos = itertools.product(*(ax.points for ax in spec.axes))
    for index, points in enumerate(combos):
        overrides: dict[str, object] = {}
        for point in points:
            overrides.update(dict(point.overrides))
        config = apply_overrides(spec.base, overrides)
        fingerprint = config_fingerprint(config)
        cells.append(
            SweepCell(
                index=index,
                cell_id=f"c{index:03d}-{fingerprint[:10]}",
                labels=tuple(
                    (ax.name, point.label)
                    for ax, point in zip(spec.axes, points)
                ),
                config=config,
                config_fingerprint=fingerprint,
            )
        )
    return tuple(cells)


# -- identity ------------------------------------------------------------------


def spec_fingerprint(spec: ScenarioSpec) -> str:
    """Stable hex digest of everything that determines the cell list."""
    payload = json.dumps(
        {
            "schema": SWEEP_SCHEMA_VERSION,
            "name": spec.name,
            # Part of every sweep id: dropping it would orphan every
            # existing ledger.
            "mode": "grid",
            "base": canonical(spec.base),
            "axes": [
                {
                    "name": ax.name,
                    "points": [
                        {
                            "label": point.label,
                            "overrides": canonical(dict(point.overrides)),
                        }
                        for point in ax.points
                    ],
                }
                for ax in spec.axes
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def sweep_id(spec: ScenarioSpec) -> str:
    """The sweep's ledger key: spec name plus a fingerprint prefix."""
    return f"{spec.name}-{spec_fingerprint(spec)[:12]}"
