"""A reduced-size run of every workload, untraced and traced."""

import json
import multiprocessing
from multiprocessing import resource_tracker

import pytest

from e2ebench import run, workloads
from e2ebench.layers import PER_LAYER


@pytest.fixture
def reduced(monkeypatch, tmp_path):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(workloads, "SEEDS_PER_WINDOW", 2)
    monkeypatch.setattr(workloads, "GRID_N", 64)
    monkeypatch.setattr(workloads, "GRID_M", 256)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    for name in run.AMBIENT_VARS:
        monkeypatch.delenv(name, raising=False)


def _result(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(reduced, capsys, workload):
    code, result, lines = _result(
        capsys, ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0"]
    )
    assert code == 0, lines
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    for name, unit in run.END_TO_END:
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert entry["value"] > 0, name
        assert any(line.startswith(f"{name} ") for line in lines)
    # No process outlives the run: workers are reaped and the resource
    # tracker the shared-memory segments started is stopped and waited for.
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(reduced, capsys, workload):
    code, result, lines = _result(
        capsys, ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "1"]
    )
    assert code == 0, lines
    assert set(result["metrics"]) == {name for name, _ in PER_LAYER}
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["trace.units"] >= 1
    assert 0.0 <= metrics["trace.unattributed_frac"] <= 1.0
    self_times = sum(v for k, v in metrics.items() if ".self_s" in k)
    assert self_times <= metrics["trace.wall_s"] * (1 + 1e-9)


def test_refuses_ambient_settings(reduced, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "python")
    code = run.main(["--workload", "repro-all", "--seed", "1", "--seconds", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "REPRO_KERNEL" in captured.err


def test_output_mismatch_fails_the_run(reduced, capsys, monkeypatch):
    monkeypatch.setattr(workloads.ReproAll, "check", _wrong_digest)
    code, result, _ = _result(
        capsys, ["--workload", "repro-all", "--seed", "3", "--seconds", "0.5", "--trace", "0"]
    )
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def _wrong_digest(self, result, elapsed):
    return self._batch_outcome(False, elapsed, "digest mismatch (injected)")
