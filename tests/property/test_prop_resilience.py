"""Property tests: fault recovery never changes bytes.

The resilience contract, stated as a property: for any fault schedule drawn
from the supported injection points, any worker count, and either kernel
backend, the executor's :class:`RunReport` payloads and the result store's
persisted entries are byte-identical to a fault-free serial run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import HAS_NUMPY, KERNEL_ENV_VAR
from repro.resilience.durability import canonical_json
from repro.resilience.faults import FAULTS_ENV_VAR
from repro.runtime import ResultStore, RuntimeTask, TaskExecutor, freeze_params
from repro.runtime.store import task_fingerprint
from repro.utils.env import env_overrides

#: One schedule per injection point (plus "no faults"), each at a rate that
#: fires often but (until=1) always clears on the first retry.
FAULT_SPECS = (
    None,
    "seed={seed},executor.submit:raise:0.6:1",
    "seed={seed},executor.submit:crash:0.6:1",
    "seed={seed},executor.submit:corrupt:0.6:1",
    "seed={seed},store.put:torn:0.6:1",
    "seed={seed},engine.pass:raise:0.4:1",
    "seed={seed},kernel.make:raise:0.5:1",
)

BACKENDS = ("python", "numpy") if HAS_NUMPY else ("python",)


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


def run_grid(tmp_root: Path, env: dict, workers: int):
    """Run the grid under ``env`` overrides; return (payloads, store bytes)."""
    with env_overrides(env):
        store = ResultStore(tmp_root)
        report = TaskExecutor(workers=workers, store=store).run(grid_tasks())
    payloads = [canonical_json(outcome.payload) for outcome in report.outcomes]
    entries = {}
    for task in grid_tasks():
        fingerprint = task_fingerprint(task)
        entry = json.loads(store.path_for(fingerprint).read_text())
        entries[fingerprint] = canonical_json(entry["result"])
    return payloads, entries


_baselines: dict = {}


def baseline(tmp_path_factory_root: Path, backend: str):
    """Fault-free serial reference for ``backend`` (computed once)."""
    if backend not in _baselines:
        root = tmp_path_factory_root / f"baseline-{backend}"
        _baselines[backend] = run_grid(
            root,
            {FAULTS_ENV_VAR: None, KERNEL_ENV_VAR: backend},
            workers=1,
        )
    return _baselines[backend]


class TestRecoveryParity:
    @given(
        spec_index=st.integers(min_value=0, max_value=len(FAULT_SPECS) - 1),
        fault_seed=st.integers(min_value=0, max_value=2**16),
        workers=st.sampled_from([1, 2, 4]),
        backend=st.sampled_from(BACKENDS),
    )
    @settings(max_examples=12, deadline=None)
    def test_faulted_runs_match_clean_serial_bytes(
        self, tmp_path_factory, spec_index, fault_seed, workers, backend
    ):
        shared_root = tmp_path_factory.getbasetemp()
        clean_payloads, clean_entries = baseline(shared_root, backend)

        template = FAULT_SPECS[spec_index]
        spec = template.format(seed=fault_seed) if template else None
        run_root = tmp_path_factory.mktemp("prop-resilience")
        payloads, entries = run_grid(
            run_root,
            {FAULTS_ENV_VAR: spec, KERNEL_ENV_VAR: backend},
            workers=workers,
        )
        assert payloads == clean_payloads
        assert entries == clean_entries

    @pytest.mark.skipif(not HAS_NUMPY, reason="needs both kernel backends")
    def test_backends_agree_on_clean_bytes(self, tmp_path_factory):
        shared_root = tmp_path_factory.getbasetemp()
        python_payloads, python_entries = baseline(shared_root, "python")
        numpy_payloads, numpy_entries = baseline(shared_root, "numpy")
        assert python_payloads == numpy_payloads
        assert python_entries == numpy_entries
