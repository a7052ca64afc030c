"""How instances travel to pool workers.

A heap descriptor pickles with its packed buffer; a shared-memory
descriptor names a segment each worker attaches.  Either way a 2-worker
fan-out computes the same payloads as the serial run.
"""

import pytest

from repro.resilience.durability import canonical_json
from repro.resilience.faults import FAULTS_ENV_VAR
from repro.resilience.policy import RETRY_ENV_VAR
from repro.runtime import RuntimeTask, TaskExecutor, freeze_params
from repro.setcover.source import HeapSource, SharedMemorySource
from repro.workloads.random_instances import plant_cover_instance, random_instance


@pytest.fixture(autouse=True)
def no_ambient_faults(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    monkeypatch.delenv(RETRY_ENV_VAR, raising=False)


def _heap(system):
    return HeapSource.from_packed(system.to_packed()).descriptor()


def _solve_tasks(instances, seeds):
    return [
        RuntimeTask(
            key=f"WL[{index}]",
            runner="WL",
            params=freeze_params(
                {
                    "workload": "random",
                    "algorithm": "saha_getoor",
                    "order": "random",
                    "instance": instance,
                }
            ),
            seed=seed,
        )
        for index, (instance, seed) in enumerate(zip(instances, seeds))
    ]


def _payloads(tasks, workers):
    report = TaskExecutor(workers=workers).run(tasks)
    assert [o.status for o in report.outcomes] == ["computed"] * len(tasks)
    return [canonical_json(outcome.payload) for outcome in report.outcomes]


class TestParallelRoundTrip:
    def test_parallel_map_matches_serial_through_packed_pickle(self):
        descriptors = [
            _heap(random_instance(48, 20, density=0.15, seed=seed).system)
            for seed in range(6)
        ]
        tasks = _solve_tasks(descriptors, seeds=range(6))
        assert _payloads(tasks, workers=2) == _payloads(tasks, workers=1)

    def test_shared_memory_fanout_matches_serial(self):
        system = plant_cover_instance(60, 24, 4, seed=11).system
        seeds = range(1, 5)
        serial = _payloads(_solve_tasks([_heap(system)] * 4, seeds), workers=1)
        shared = SharedMemorySource.publish(system.to_packed())
        try:
            descriptor = shared.descriptor()
            fanned = _payloads(_solve_tasks([descriptor] * 4, seeds), workers=2)
        finally:
            shared.close()
        assert fanned == serial
