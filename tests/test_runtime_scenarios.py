"""Unit tests for the scenario registry and grid expansion."""

import pytest

from repro.experiments.experiment_defs import EXPERIMENT_REGISTRY
from repro.runtime.scenarios import (
    SCENARIO_REGISTRY,
    ScenarioGrid,
    ScenarioSpec,
    freeze_params,
    get_scenario,
    iter_scenarios,
    register_grid,
    register_scenario,
)
from repro.runtime.tasks import tasks_from_scenario


class TestBuiltinRegistry:
    def test_every_experiment_is_registered(self):
        for experiment_id in EXPERIMENT_REGISTRY:
            spec = get_scenario(experiment_id)
            assert spec.runner == experiment_id
            assert spec.repetitions == 1
            assert "paper" in spec.tags

    def test_lookup_is_case_insensitive_for_experiments(self):
        assert get_scenario("e5").name == "E5"

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("nope")

    def test_iter_scenarios_natural_order_and_tag_filtered(self):
        names = [spec.name for spec in iter_scenarios(tag="paper")]
        assert names == [f"E{i}" for i in range(1, 13)]
        assert iter_scenarios(tag="no-such-tag") == []


class TestFreezeParams:
    def test_sorted_and_hashable(self):
        frozen = freeze_params({"b": [1, 2], "a": (3, [4])})
        assert frozen == (("a", (3, (4,))), ("b", (1, 2)))
        hash(frozen)

    def test_dict_values_rejected(self):
        with pytest.raises(TypeError):
            freeze_params({"weights": {"a": 1}})

    def test_empty(self):
        assert freeze_params(None) == ()
        assert freeze_params({}) == ()


class TestScenarioSpec:
    def test_unknown_runner_rejected(self):
        with pytest.raises(KeyError):
            ScenarioSpec(name="bad", runner="E99")

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", runner="E12", repetitions=0)

    def test_kwargs_round_trip(self):
        spec = ScenarioSpec(
            name="t", runner="E12", params=freeze_params({"t": 2})
        )
        assert spec.kwargs() == {"t": 2}


class TestRegistration:
    def test_register_and_unregister(self):
        try:
            spec = register_scenario("tmp-scn", runner="E12", params={"t": 2})
            assert SCENARIO_REGISTRY["tmp-scn"] is spec
            with pytest.raises(KeyError):
                register_scenario("tmp-scn", runner="E12")
            register_scenario("tmp-scn", runner="E12", seed=5, replace=True)
            assert get_scenario("tmp-scn").seed == 5
        finally:
            SCENARIO_REGISTRY.pop("tmp-scn", None)
        assert "tmp-scn" not in SCENARIO_REGISTRY

    def test_register_grid_expands_product(self):
        try:
            specs = register_grid(
                "tmp-grid",
                runner="E12",
                axes={"t": [2, 3], "seed": [1, 2]},
            )
            names = [spec.name for spec in specs]
            assert len(specs) == 4
            assert "tmp-grid[seed=1,t=2]" in names
            assert get_scenario("tmp-grid[seed=2,t=3]").kwargs() == {
                "seed": 2,
                "t": 3,
            }
        finally:
            for spec in iter_scenarios():
                if spec.name.startswith("tmp-grid"):
                    SCENARIO_REGISTRY.pop(spec.name)


class TestGridExpansion:
    def test_empty_axes_single_spec(self):
        grid = ScenarioGrid(name="g", runner="E12")
        specs = grid.expand()
        assert [spec.name for spec in specs] == ["g"]

    def test_base_params_merged_and_overridable(self):
        grid = ScenarioGrid(
            name="g",
            runner="E12",
            axes=freeze_params({"t": [2, 3]}),
            base_params=freeze_params({"seed": 11, "t": 99}),
        )
        specs = grid.expand()
        assert all(spec.kwargs()["seed"] == 11 for spec in specs)
        assert sorted(spec.kwargs()["t"] for spec in specs) == [2, 3]


class TestTasksFromScenario:
    def test_single_repetition_keeps_default_seed(self):
        tasks = tasks_from_scenario(get_scenario("E12"))
        assert len(tasks) == 1
        assert tasks[0].key == "E12"
        assert tasks[0].seed is None

    def test_seed_override_passes_through(self):
        tasks = tasks_from_scenario(get_scenario("E12"), seed_override=7)
        assert tasks[0].seed == 7

    def test_repetitions_expand_with_derived_seeds(self):
        spec = ScenarioSpec(name="reps", runner="E12", seed=3, repetitions=3)
        tasks = tasks_from_scenario(spec)
        assert [task.key for task in tasks] == ["reps#r0", "reps#r1", "reps#r2"]
        seeds = {task.seed for task in tasks}
        assert len(seeds) == 3
        assert all(seed is not None for seed in seeds)

    def test_repetition_seeds_are_stable(self):
        spec = ScenarioSpec(name="reps", runner="E12", seed=3, repetitions=2)
        assert [t.seed for t in tasks_from_scenario(spec)] == [
            t.seed for t in tasks_from_scenario(spec)
        ]
