"""Tests for the sharded executor: determinism, caching, ordered merging."""

import dataclasses
import os
import random

from repro.runtime.executor import (
    STATUS_CACHED,
    STATUS_COMPUTED,
    TaskExecutor,
    default_chunksize,
    default_workers,
    plan_chunks,
)
from repro.runtime.scenarios import freeze_params, iter_scenarios
from repro.runtime.store import ResultStore
from repro.runtime.tasks import RuntimeTask, tasks_from_scenario
from repro.setcover.source import HeapSource
from repro.workloads.random_instances import random_set_system

import pytest


def grid_tasks():
    """A small, cheap scenario grid: E12 at two gadget sizes x two seeds."""
    return [
        RuntimeTask(
            key=f"E12[t={t},seed={seed}]",
            runner="E12",
            params=freeze_params({"t": t}),
            seed=seed,
        )
        for t in (2, 3)
        for seed in (1, 2)
    ]


def render_report(report):
    return "\n".join(
        f"{outcome.task.key}:{outcome.status}\n{outcome.result().render()}"
        for outcome in report.outcomes
    )


class TestParallelSerialParity:
    def test_parallel_output_identical_to_serial(self):
        tasks = grid_tasks()
        serial = TaskExecutor(workers=1).run(tasks)
        parallel = TaskExecutor(workers=4).run(tasks)
        assert render_report(serial) == render_report(parallel)
        assert [o.task.key for o in parallel.outcomes] == [t.key for t in tasks]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            TaskExecutor(workers=0)


class TestStoreIntegration:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        tasks = grid_tasks()
        store = ResultStore(tmp_path)
        first = TaskExecutor(workers=2, store=store).run(tasks)
        assert first.counts() == {STATUS_COMPUTED: len(tasks), STATUS_CACHED: 0}

        second = TaskExecutor(workers=2, store=ResultStore(tmp_path)).run(tasks)
        assert second.counts() == {STATUS_COMPUTED: 0, STATUS_CACHED: len(tasks)}
        assert render_report(first).replace(STATUS_COMPUTED, STATUS_CACHED) == (
            render_report(second)
        )

    def test_partial_cache_mixes_statuses(self, tmp_path):
        tasks = grid_tasks()
        store = ResultStore(tmp_path)
        TaskExecutor(store=store).run(tasks[:2])
        report = TaskExecutor(store=ResultStore(tmp_path)).run(tasks)
        statuses = [outcome.status for outcome in report.outcomes]
        assert statuses == [
            STATUS_CACHED,
            STATUS_CACHED,
            STATUS_COMPUTED,
            STATUS_COMPUTED,
        ]

    def test_cached_results_match_computed(self, tmp_path):
        tasks = grid_tasks()[:2]
        fresh = TaskExecutor().run(tasks)
        TaskExecutor(store=ResultStore(tmp_path)).run(tasks)
        cached = TaskExecutor(store=ResultStore(tmp_path)).run(tasks)
        for before, after in zip(fresh.outcomes, cached.outcomes):
            assert before.result().render() == after.result().render()
            assert before.result().findings == after.result().findings


class TestFailureSemantics:
    def bad_task(self):
        return RuntimeTask(
            key="bad", runner="E12", params=freeze_params({"bogus": 1}), seed=1
        )

    def test_failed_batch_keeps_completed_results(self, tmp_path):
        """Tasks finished before a failure are persisted — the sweep resumes."""
        store = ResultStore(tmp_path)
        good = grid_tasks()[0]
        with pytest.raises(TypeError):
            TaskExecutor(store=store).run([good, self.bad_task()])
        assert good in store
        report = TaskExecutor(store=ResultStore(tmp_path)).run([good])
        assert report.counts()[STATUS_CACHED] == 1

    def test_task_errors_propagate_in_parallel(self):
        """A task's own exception is not swallowed by the sandbox fallback."""
        with pytest.raises(TypeError):
            TaskExecutor(workers=2).run([grid_tasks()[0], self.bad_task()])


class TestChunkedSubmission:
    def test_chunked_output_identical_to_serial(self):
        tasks = grid_tasks()
        serial = TaskExecutor(workers=1).run(tasks)
        for chunksize in (1, 2, 3, len(tasks) + 5):
            chunked = TaskExecutor(workers=2, chunksize=chunksize).run(tasks)
            assert render_report(chunked) == render_report(serial)
            assert [o.task.key for o in chunked.outcomes] == [t.key for t in tasks]

    def test_chunked_runs_persist_to_store(self, tmp_path):
        tasks = grid_tasks()
        store = ResultStore(tmp_path)
        first = TaskExecutor(workers=2, chunksize=3, store=store).run(tasks)
        assert first.counts()[STATUS_COMPUTED] == len(tasks)
        second = TaskExecutor(workers=2, chunksize=3, store=ResultStore(tmp_path)).run(tasks)
        assert second.counts() == {STATUS_COMPUTED: 0, STATUS_CACHED: len(tasks)}

    def test_invalid_chunksize_rejected(self):
        with pytest.raises(ValueError):
            TaskExecutor(chunksize=0)

    def test_default_chunksize_heuristic(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(3, 4) == 1
        # ~4 chunks per worker on big grids, never zero.
        assert default_chunksize(1000, 4) == 63
        assert default_chunksize(5, 1) == 2

    def test_default_workers_counts_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert default_workers() == 3
        # Without an affinity mask: the CPU count, and never fewer than one.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_workers() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1


def adv_pending(attached=True):
    """The 48 ADV cells as pending ``(index, task)`` pairs, on one instance if ``attached``."""
    tasks = [
        task for spec in iter_scenarios(tag="adversarial") for task in tasks_from_scenario(spec)
    ]
    if attached:
        system = random_set_system(16, 8, seed=1)
        descriptor = HeapSource.from_packed(system.to_packed()).descriptor()
        tasks = [
            dataclasses.replace(task, params=task.params + (("instance", descriptor),))
            for task in tasks
        ]
    return list(enumerate(tasks))


class TestChunkPlan:
    """Chunks carry whole cell groups; tasks without a shared run chunk as slices."""

    @pytest.mark.parametrize("size", [1, 2, 3, 6, 48])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_a_group_never_spans_two_chunks(self, size, shuffled):
        pending = adv_pending()
        if shuffled:
            random.Random(5).shuffle(pending)
        chunks = plan_chunks(pending, size)
        chunk_of_group = {}
        for number, chunk in enumerate(chunks):
            indices = [index for index, _ in chunk]
            assert indices == sorted(indices)
            for _, task in chunk:
                params = dict(task.params)
                group = (params["algorithm"], params["order"])
                assert chunk_of_group.setdefault(group, number) == number
        assert len(chunk_of_group) == 12
        assert sorted(index for chunk in chunks for index, _ in chunk) == list(range(48))

    def test_the_adv_grid_ships_two_groups_per_chunk_on_two_workers(self):
        chunks = plan_chunks(adv_pending(), default_chunksize(48, 2))
        assert [len(chunk) for chunk in chunks] == [8] * 6

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 48])
    def test_tasks_without_a_shared_run_chunk_as_slices(self, size):
        # Experiments, and WL cells that generate their own instance.
        tasks = grid_tasks() + [task for _, task in adv_pending(attached=False)]
        pending = list(enumerate(tasks))
        chunks = plan_chunks(pending, size)
        assert chunks == [pending[start : start + size] for start in range(0, len(pending), size)]
