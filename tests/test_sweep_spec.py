"""Scenario specs: override application, expansion, identity, presets."""

from __future__ import annotations

import datetime as dt

import pytest

from repro.core.study import StudyConfig
from repro.net.plan import PlanConfig
from repro.sweep import (
    Axis,
    AxisPoint,
    ScenarioSpec,
    ablation_substrate,
    apply_overrides,
    axis,
    expand,
    preset,
    preset_names,
    seed_axis,
    spec_fingerprint,
    sweep_id,
)
from repro.sweep.presets import ABLATION_2022, REDUCED_FOUR_YEARS
from repro.util.calendar import StudyCalendar

BASE = StudyConfig(
    seed=0,
    calendar=StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 4, 23)),
    plan=PlanConfig(seed=0, tail_as_count=60),
)


class TestApplyOverrides:
    def test_top_level_and_nested(self):
        updated = apply_overrides(
            BASE, {"seed": 7, "plan.tail_as_count": 80, "dp_per_day": 12.0}
        )
        assert updated.seed == 7
        assert updated.plan.tail_as_count == 80
        assert updated.dp_per_day == 12.0
        # The base config is untouched (frozen dataclass replace).
        assert BASE.seed == 0 and BASE.plan.tail_as_count == 60

    def test_unknown_field_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown field 'sede'"):
            apply_overrides(BASE, {"sede": 1})

    def test_unknown_nested_field_names_the_dataclass(self):
        with pytest.raises(ValueError, match="PlanConfig"):
            apply_overrides(BASE, {"plan.tail_count": 80})

    def test_none_intermediate_rejected(self):
        no_plan = StudyConfig(seed=0, calendar=BASE.calendar)
        with pytest.raises(ValueError, match="'plan' is None"):
            apply_overrides(no_plan, {"plan.seed": 3})

    def test_path_through_scalar_rejected(self):
        with pytest.raises(ValueError, match="not inside a dataclass"):
            apply_overrides(BASE, {"seed.inner": 3})


class TestAxes:
    def test_axis_builder_labels_values(self):
        ax = axis("dp", "dp_per_day", (45.0, 90.0))
        assert [p.label for p in ax.points] == ["45.0", "90.0"]
        assert ax.points[0].overrides == (("dp_per_day", 45.0),)

    def test_seed_axis_reseeds_plan(self):
        ax = seed_axis((1, 2))
        assert dict(ax.points[0].overrides) == {"seed": 1, "plan.seed": 1}

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            Axis(name="empty", points=())

    def test_duplicate_labels_rejected(self):
        point = AxisPoint.of("x", {"seed": 1})
        with pytest.raises(ValueError, match="duplicate labels"):
            Axis(name="dup", points=(point, point))


class TestExpansion:
    def _spec(self):
        return ScenarioSpec(
            name="t",
            base=BASE,
            axes=(
                seed_axis((0, 1)),
                axis("dp", "dp_per_day", (45.0, 90.0)),
            ),
        )

    def test_grid_order_first_axis_slowest(self):
        cells = expand(self._spec())
        assert len(cells) == 4
        assert [c.label_map for c in cells] == [
            {"seed": "0", "dp": "45.0"},
            {"seed": "0", "dp": "90.0"},
            {"seed": "1", "dp": "45.0"},
            {"seed": "1", "dp": "90.0"},
        ]
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert cells[2].config.seed == 1 and cells[2].config.plan.seed == 1
        assert cells[3].config.dp_per_day == 90.0

    def test_expansion_is_deterministic(self):
        first, second = expand(self._spec()), expand(self._spec())
        assert [c.cell_id for c in first] == [c.cell_id for c in second]
        assert all(a.config == b.config for a, b in zip(first, second))

    def test_cell_ids_embed_config_fingerprint(self):
        cell = expand(self._spec())[2]
        assert cell.cell_id == f"c002-{cell.config_fingerprint[:10]}"
        assert cell.describe() == "seed=1 dp=45.0"

    def test_no_axes_yields_single_base_cell(self):
        cells = expand(ScenarioSpec(name="solo", base=BASE))
        assert len(cells) == 1
        assert cells[0].config == BASE
        assert cells[0].describe() == "(base)"

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate axis names"):
            ScenarioSpec(
                name="t", base=BASE, axes=(seed_axis((0,)), seed_axis((1,)))
            )


class TestIdentity:
    def test_fingerprint_stable_and_sensitive(self):
        spec = ScenarioSpec(name="t", base=BASE, axes=(seed_axis((0, 1)),))
        assert spec_fingerprint(spec) == spec_fingerprint(spec)
        shifted = ScenarioSpec(name="t", base=BASE, axes=(seed_axis((0, 2)),))
        assert spec_fingerprint(spec) != spec_fingerprint(shifted)
        assert sweep_id(spec) == f"t-{spec_fingerprint(spec)[:12]}"

    def test_preset_fingerprints_are_pinned(self):
        """A sweep id names its ledger, so a preset's fingerprint must not
        move when the spec layer is refactored."""
        assert spec_fingerprint(preset("smoke")) == (
            "c809a9387715e6058489b1fe54ee00173097480f0b45e94361c3b00e4899a0bf"
        )
        assert spec_fingerprint(preset("booter-takedown")) == (
            "bff7c2097f2ea4b6530bf3f5dd49e6ae3e9c2bff7c7c469f470029cd4ca8895f"
        )


class TestPresets:
    def test_registry_lists_all(self):
        assert preset_names() == sorted(preset_names())
        for name in preset_names():
            spec = preset(name)
            assert spec.name == name
            assert expand(spec)

    def test_unknown_preset_names_alternatives(self):
        with pytest.raises(KeyError, match="smoke"):
            preset("nope")

    def test_seed_robustness_matches_retired_benchmark_literals(self):
        """The preset must rebuild the exact configs the old hand-rolled
        ``EXT_seed_robustness`` benchmark duplicated inline."""
        cells = expand(preset("seed-robustness"))
        assert [c.config for c in cells] == [
            StudyConfig(
                seed=seed,
                calendar=REDUCED_FOUR_YEARS,
                dp_per_day=50.0,
                ra_per_day=40.0,
                plan=PlanConfig(seed=seed, tail_as_count=200),
            )
            for seed in (1, 2, 3)
        ]

    def test_ablation_carpet_matches_retired_benchmark_literals(self):
        cells = {c.label_map["carpet"]: c for c in expand(preset("ablation-carpet"))}
        for label, aggregate in (("aggregated", True), ("per-ip", False)):
            assert cells[label].config == StudyConfig(
                seed=0,
                calendar=ABLATION_2022,
                dp_per_day=30.0,
                ra_per_day=40.0,
                plan=PlanConfig(seed=0, tail_as_count=80),
                aggregate_carpet=aggregate,
            )

    def test_ablation_substrate_shape(self):
        config = ablation_substrate(60.0, 20.0)
        assert config.plan.tail_as_count == 80
        assert (config.dp_per_day, config.ra_per_day) == (60.0, 20.0)

    def test_smoke_preset_is_tiny(self):
        spec = preset("smoke")
        cells = expand(spec)
        assert len(cells) == 4
        assert all(cell.config.calendar.n_weeks < 25 for cell in cells)
