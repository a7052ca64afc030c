"""The micro-benchmarks' golden outputs and their no-regression gate.

``benchmarks/goldens/`` holds what the pre-kernel implementations returned
on every ``FULL_GRID`` entry, written by them before they were retired: the
full-rescan greedy's picks and the per-set streaming baselines' whole
results.  The current code must reproduce them on every registered backend.
The gate (``benchmarks/microbench.py``) fails a run whose gated time exceeds
the tolerance times the committed baseline, or that cannot find either.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The benchmark scripts import their shared module by name.
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_kernels  # noqa: E402
import bench_lowerbound  # noqa: E402
import bench_streaming  # noqa: E402
import microbench  # noqa: E402


@pytest.mark.parametrize("n,m,seed", bench_kernels.FULL_GRID)
def test_lazy_greedy_reproduces_the_golden_picks(n, m, seed):
    bench_kernels.check_golden(n, m, seed, bench_kernels.backend_systems(n, m, seed))


@pytest.mark.parametrize("n,m,seed", bench_streaming.FULL_GRID)
def test_streaming_sweep_reproduces_the_golden_results(n, m, seed):
    bench_streaming.check_golden(n, m, seed, bench_streaming.backend_systems(n, m, seed))


def _dsc_payload(batched_s):
    return {"grid": [{"kind": "dsc", "e5_scale": True, "batched_s": batched_s}]}


class TestBaselineGate:
    def gate(self, tmp_path, payload, committed, script=bench_lowerbound):
        return microbench.finish(
            payload, str(tmp_path / "run.json"), committed, script.gated_times
        )

    def test_passes_at_the_budget(self, tmp_path):
        budget = microbench.TOLERANCE * 0.012
        assert self.gate(tmp_path, _dsc_payload(budget), _dsc_payload(0.012)) == 0

    def test_fails_just_above_the_budget(self, tmp_path, capsys):
        above = math.nextafter(microbench.TOLERANCE * 0.012, math.inf)
        assert self.gate(tmp_path, _dsc_payload(above), _dsc_payload(0.012)) == 1
        assert "FAIL D_SC sampling E5 scale batched" in capsys.readouterr().out

    def test_fails_when_the_baseline_lacks_the_entry(self, tmp_path, capsys):
        assert self.gate(tmp_path, _dsc_payload(0.001), {"grid": []}) == 1
        assert "the baseline has no such time" in capsys.readouterr().out

    def test_fails_when_the_run_lacks_the_entry(self, tmp_path, capsys):
        assert self.gate(tmp_path, {"grid": []}, _dsc_payload(0.012)) == 1
        assert "this run has no such time" in capsys.readouterr().out

    def test_fails_when_the_baseline_lacks_the_backend(self, tmp_path, monkeypatch):
        # On a host with NumPy the kernels gate reads the numpy time.
        monkeypatch.setattr(bench_kernels, "registered_backends", lambda: ["python", "numpy"])
        entry = {"n": 512, "m": 1024, "seed": 1}
        measured = {"grid": [dict(entry, greedy={"lazy_numpy_s": 0.001})]}
        committed = {"grid": [dict(entry, greedy={"lazy_python_s": 0.002})]}
        assert self.gate(tmp_path, measured, committed, bench_kernels) == 1

    def test_without_a_baseline_only_writes(self, tmp_path):
        assert self.gate(tmp_path, {"grid": []}, None) == 0
        assert json.loads((tmp_path / "run.json").read_text()) == {"grid": []}


@pytest.mark.parametrize(
    "script,baseline,tiers",
    [
        (bench_kernels, "BENCH_kernels.json", ["python", "numpy"]),
        (bench_streaming, "BENCH_streaming.json", ["python", "numpy"]),
        (bench_lowerbound, "BENCH_lowerbound.json", None),
    ],
)
def test_committed_baselines_hold_what_ci_gates_read(monkeypatch, script, baseline, tiers):
    if tiers is not None:
        monkeypatch.setattr(script, "registered_backends", lambda: tiers)
    committed = json.loads((ROOT / baseline).read_text())
    times = script.gated_times(committed)
    assert times and all(isinstance(value, float) for value in times.values()), times
