"""Parity suite: telemetry capture must not change any output, on any backend.

The telemetry subsystem's core promise is output-neutrality — a run with a
:class:`~repro.telemetry.TelemetrySession` active produces byte-identical
results to the same run without one.  Every test here computes the same
artifact twice (telemetry off, then on) and compares canonical JSON or
equality, parametrized over every kernel backend where the artifact touches
the kernel layer.
"""

import json

import pytest

from kernel_conformance import SWEPT_BACKENDS
from repro.core.algorithm1 import AlgorithmOneConfig, StreamingSetCover
from repro.lowerbound.dmc import DMCParameters, sample_dmc
from repro.lowerbound.dsc import DSCParameters, sample_dsc
from repro.runtime.executor import TaskExecutor
from repro.runtime.scenarios import freeze_params
from repro.runtime.store import ResultStore, task_fingerprint
from repro.runtime.tasks import RuntimeTask
from repro.setcover.greedy import greedy_cover_trace
from repro.setcover.instance import SetSystem
from repro.streaming.engine import run_streaming_algorithm
from repro.telemetry import TelemetrySession
from repro.utils.rng import RandomSource

BACKENDS = SWEPT_BACKENDS


def dense_system(n=96, m=40, seed=5, backend="python"):
    rng = RandomSource(seed)
    universe = (1 << n) - 1
    masks = [rng.randbits(n) & rng.randbits(n) | (1 << (i % n)) for i in range(m)]
    masks[0] |= universe  # keep the instance coverable
    return SetSystem.from_masks(n, masks, backend=backend)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)


def grid_tasks():
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


@pytest.mark.parametrize("backend", BACKENDS)
class TestKernelLayerParity:
    def test_greedy_cover_identical(self, backend):
        off = greedy_cover_trace(dense_system(backend=backend))
        with TelemetrySession():
            on = greedy_cover_trace(dense_system(backend=backend))
        assert on.solution == off.solution
        assert on.steps == off.steps

    def test_streaming_engine_identical(self, backend):
        def run():
            config = AlgorithmOneConfig(alpha=2, opt_guess=4, epsilon=0.5)
            result = run_streaming_algorithm(
                StreamingSetCover(config, seed=11),
                dense_system(backend=backend),
            )
            return (
                sorted(result.solution),
                result.passes,
                result.space.peak_words if result.space else None,
            )

        off = run()
        with TelemetrySession():
            on = run()
        assert on == off


class TestSamplerParity:
    def test_dsc_identical(self):
        params = DSCParameters(universe_size=64, num_pairs=6, alpha=2)
        off = sample_dsc(params, seed=3, theta=1)
        with TelemetrySession():
            on = sample_dsc(params, seed=3, theta=1)
        assert on == off

    def test_dmc_identical(self):
        params = DMCParameters(num_pairs=4, epsilon=0.5)
        off = sample_dmc(params, seed=9, theta=1)
        with TelemetrySession():
            on = sample_dmc(params, seed=9, theta=1)
        assert on == off


class TestRuntimeParity:
    def test_task_fingerprints_unchanged(self):
        tasks = grid_tasks()
        off = [task_fingerprint(t) for t in tasks]
        with TelemetrySession():
            on = [task_fingerprint(t) for t in tasks]
        assert on == off

    @pytest.mark.parametrize("workers", [1, 2])
    def test_executor_payloads_identical(self, workers):
        tasks = grid_tasks()
        off = TaskExecutor(workers=workers).run(tasks)
        with TelemetrySession():
            on = TaskExecutor(workers=workers).run(tasks)
        assert canonical([o.payload for o in on.outcomes]) == canonical(
            [o.payload for o in off.outcomes]
        )
        # Telemetry rides alongside, never inside, the payloads.
        assert all(o.telemetry is not None for o in on.outcomes)
        assert all(o.telemetry is None for o in off.outcomes)

    def test_store_result_entries_identical(self, tmp_path):
        tasks = grid_tasks()
        TaskExecutor(workers=1, store=ResultStore(tmp_path / "off")).run(tasks)
        with TelemetrySession():
            TaskExecutor(workers=1, store=ResultStore(tmp_path / "on")).run(tasks)
        for task in tasks:
            fingerprint = task_fingerprint(task)
            off_entry = json.loads(
                (ResultStore(tmp_path / "off").path_for(fingerprint)).read_text()
            )
            on_entry = json.loads(
                (ResultStore(tmp_path / "on").path_for(fingerprint)).read_text()
            )
            assert "telemetry" not in off_entry
            on_entry.pop("telemetry")
            assert canonical(on_entry) == canonical(off_entry)
