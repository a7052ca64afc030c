"""Unit tests for the workload sweep runner and its scenario registration."""

import dataclasses
import hashlib
import random

import pytest

from repro import kernels
from repro.experiments import workload_defs
from repro.experiments.runners import RUNNER_REGISTRY
from repro.experiments.workload_defs import (
    ALGORITHM_KINDS,
    WORKLOAD_KINDS,
    release_instance_cache,
    run_workload_sweep,
)
from repro.resilience.durability import canonical_json
from repro.runtime.executor import TaskExecutor
from repro.runtime.scenarios import SCENARIO_REGISTRY, get_scenario, iter_scenarios
from repro.runtime.tasks import execute_task, tasks_from_scenario
from repro.setcover.source import HeapSource, write_container
from repro.telemetry import TelemetrySession
from repro.workloads.random_instances import random_set_system

requires_numpy = pytest.mark.skipif(not kernels.HAS_NUMPY, reason="NumPy not installed")


class TestRunnerRegistry:
    def test_workload_runner_registered(self):
        assert "WL" in RUNNER_REGISTRY
        assert RUNNER_REGISTRY["WL"] is run_workload_sweep

    def test_experiments_still_present(self):
        for experiment_id in (f"E{i}" for i in range(1, 13)):
            assert experiment_id in RUNNER_REGISTRY


class TestRunWorkloadSweep:
    @pytest.mark.parametrize("workload", WORKLOAD_KINDS)
    def test_every_workload_kind_runs(self, workload):
        result = run_workload_sweep(
            workload=workload, algorithm="saha_getoor", seed=5
        )
        assert result.experiment_id == "WL"
        assert result.findings["workload"] == workload
        assert result.findings["peak_space_words"] >= 0

    @pytest.mark.parametrize("algorithm", ALGORITHM_KINDS)
    def test_every_algorithm_runs_on_dsc(self, algorithm):
        result = run_workload_sweep(workload="dsc", algorithm=algorithm, seed=7)
        assert result.findings["algorithm"] == algorithm
        # Hard instances always report their space accounting.
        assert "peak_space_words" in result.findings
        assert "stored_incidences_peak" in result.findings

    def test_random_order_differs_from_adversarial_stream(self):
        adversarial = run_workload_sweep(
            workload="random", algorithm="saha_getoor", order="adversarial", seed=3
        )
        shuffled = run_workload_sweep(
            workload="random", algorithm="saha_getoor", order="random", seed=3
        )
        assert adversarial.findings["order"] == "adversarial"
        assert shuffled.findings["order"] == "random"

    def test_deterministic_given_seed(self):
        first = run_workload_sweep(workload="dsc", algorithm="algorithm1", seed=11)
        second = run_workload_sweep(workload="dsc", algorithm="algorithm1", seed=11)
        assert first.findings == second.findings

    def test_space_budget_overrun_reported_not_raised(self):
        result = run_workload_sweep(
            workload="random",
            algorithm="store_everything",
            space_budget=1,
            seed=13,
        )
        assert result.findings["budget_exceeded"] is True
        assert result.findings["solution_size"] is None

    def test_space_budget_within_bound(self):
        result = run_workload_sweep(
            workload="random",
            algorithm="saha_getoor",
            space_budget=10 ** 9,
            seed=13,
        )
        assert result.findings["budget_exceeded"] is False
        assert result.findings["space_budget"] == 10 ** 9

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_workload_sweep(workload="nope")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_workload_sweep(algorithm="nope")


class TestAdversarialGrid:
    def test_grid_covers_the_full_cartesian_product(self):
        specs = [spec for spec in iter_scenarios(tag="adversarial")]
        assert len(specs) == len(WORKLOAD_KINDS) * 2 * len(ALGORITHM_KINDS)
        combos = {
            (
                dict(spec.params)["workload"],
                dict(spec.params)["order"],
                dict(spec.params)["algorithm"],
            )
            for spec in specs
        }
        assert len(combos) == len(specs)
        for spec in specs:
            assert spec.runner == "WL"
            assert "workload" in spec.tags

    def test_default_wl_scenario_registered(self):
        spec = get_scenario("WL")
        assert spec.runner == "WL"
        assert spec.seed is not None

    def test_grid_cell_executes_as_task(self):
        name = "ADV[algorithm=saha_getoor,order=random,workload=dsc]"
        assert name in SCENARIO_REGISTRY
        tasks = tasks_from_scenario(SCENARIO_REGISTRY[name])
        assert len(tasks) == 1
        payload = execute_task(tasks[0])
        assert payload["experiment_id"] == "WL"
        assert payload["findings"]["workload"] == "dsc"
        assert payload["findings"]["order"] == "random"
        assert payload["findings"]["peak_space_words"] >= 0

    def test_paper_tag_unchanged(self):
        names = [spec.name for spec in iter_scenarios(tag="paper")]
        assert names == [f"E{i}" for i in range(1, 13)]


def adv_tasks(descriptor):
    """The 48 ADV grid cells, each attached to ``descriptor``."""
    return [
        dataclasses.replace(task, params=task.params + (("instance", descriptor),))
        for spec in iter_scenarios(tag="adversarial")
        for task in tasks_from_scenario(spec)
    ]


class TestInstanceCache:
    """Instance-invariant work happens once per process, never per cell."""

    def spy_on_opens(self, monkeypatch):
        import repro.setcover.source as source_module

        opened = []
        original = source_module.open_source

        def spy(descriptor):
            source = original(descriptor)
            opened.append((descriptor, source))
            return source

        monkeypatch.setattr(source_module, "open_source", spy)
        return opened

    def test_serial_run_opens_the_descriptor_once(self, tmp_path, monkeypatch):
        descriptor = write_container(
            tmp_path / "grid.repro", random_set_system(48, 64, seed=7).to_packed()
        )
        opened = self.spy_on_opens(monkeypatch)
        report = TaskExecutor().run(adv_tasks(descriptor))
        assert len(report) == 48
        assert [seen for seen, _ in opened] == [descriptor]
        assert workload_defs._INSTANCE_CACHE._entry is None
        with pytest.raises(ValueError, match="closed"):
            opened[0][1].view()

    def test_interrupted_run_releases_the_cache(self, tmp_path, monkeypatch):
        import repro.runtime.executor as executor_module

        descriptor = write_container(
            tmp_path / "grid.repro", random_set_system(48, 64, seed=7).to_packed()
        )
        opened = self.spy_on_opens(monkeypatch)
        tasks = adv_tasks(descriptor)
        original = executor_module.execute_task

        def interrupt_fifth(task):
            if task.key == tasks[4].key:
                raise KeyboardInterrupt
            return original(task)

        monkeypatch.setattr(executor_module, "execute_task", interrupt_fifth)
        report = TaskExecutor().run(tasks)
        assert report.interrupted and len(report) == 4
        assert len(opened) == 1
        assert workload_defs._INSTANCE_CACHE._entry is None
        with pytest.raises(ValueError, match="closed"):
            opened[0][1].view()

    def test_hit_meters_its_kernel_work_in_its_own_session(self):
        system = random_set_system(256, 512, seed=7)
        descriptor = HeapSource.from_packed(system.to_packed()).descriptor()
        first, second = [task for task in adv_tasks(descriptor) if "saha_getoor" in task.key][:2]
        try:
            with TelemetrySession(label="miss"):
                execute_task(first)
            with TelemetrySession(label="hit") as session:
                execute_task(second)
        finally:
            release_instance_cache()
        counters = session.registry.snapshot()["counters"]
        assert counters.get("kernel.calls.gains", 0) > 0

    def run_in_three_orders(self):
        """Per order of the ADV cells: the payload digest and the index crossing.

        The crossing is the first cell after which the NumPy kernel's shared
        inverted index exists (None on the pure-Python kernel, which has
        none).
        """
        # A heap instance large enough for the NumPy kernel, whose shared
        # inverted index is built once its rescans pass the break-even.
        system = random_set_system(256, 512, seed=7)
        descriptor = HeapSource.from_packed(system.to_packed()).descriptor()
        tasks = adv_tasks(descriptor)
        shuffled = list(tasks)
        random.Random(17).shuffle(shuffled)
        runs = []
        for order in (tasks, tasks[::-1], shuffled):
            payloads, crossing = {}, None
            try:
                for task in order:
                    payloads[task.key] = canonical_json(execute_task(task))
                    instance, _ = workload_defs._INSTANCE_CACHE.get(descriptor)
                    index = getattr(instance.system.kernel(), "_inverted", None)
                    if crossing is None and index is not None:
                        crossing = task.key
            finally:
                release_instance_cache()
            digest = hashlib.sha256()
            for task in tasks:
                digest.update(payloads[task.key].encode())
            runs.append((digest.hexdigest(), crossing))
        return runs

    def test_payloads_do_not_depend_on_cell_order(self):
        # The payloads of the build that opened the instance per cell, on
        # whichever kernel this interpreter resolves.
        for digest, _ in self.run_in_three_orders():
            assert digest == OPEN_PER_CELL_DIGEST

    @requires_numpy
    def test_each_order_crosses_to_the_index_at_its_own_cell(self):
        crossings = {crossing for _, crossing in self.run_in_three_orders()}
        assert None not in crossings and len(crossings) == 3


#: sha256 over the canonical JSON of the 48 ADV payloads, in submission
#: order, on ``random_set_system(256, 512, seed=7)`` as computed when every
#: cell opened and solved its instance afresh.
OPEN_PER_CELL_DIGEST = "5ce0948bbce6df3ada9a72b619d02d0868955d1388812e06cd6e6b5b96f1bdf7"
