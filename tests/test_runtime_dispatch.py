"""Serial and pooled execution: parity across backings, resume after a kill.

The contract: where a task runs is pure mechanism.  Submission-order
merging plus content-addressed caching mean in-process and pooled runs, on
every instance backing, produce byte-identical payloads, stores and stdout;
a run killed mid-grid resumes from its store to exactly the clean serial
bytes, and leaves no worker process behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.resilience.durability import canonical_json
from repro.resilience.faults import FAULTS_ENV_VAR
from repro.resilience.policy import RETRY_ENV_VAR
from repro.runtime import ResultStore, RuntimeTask, TaskExecutor, freeze_params
from repro.setcover.source import MmapSource
from repro.workloads.outofcore import generate_to_file

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def no_ambient_faults(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    monkeypatch.delenv(RETRY_ENV_VAR, raising=False)


def grid_tasks(descriptor=None):
    """Cheap mixed grid: E12 cells plus WL cells, optionally file-backed."""
    tasks = [
        RuntimeTask(
            key=f"E12[t={t},seed={seed}]",
            runner="E12",
            params=freeze_params({"t": t}),
            seed=seed,
        )
        for t in (2, 3)
        for seed in (1, 2)
    ]
    wl_params = {"workload": "random", "algorithm": "saha_getoor", "order": "random"}
    if descriptor is not None:
        wl_params["instance"] = descriptor
    tasks.append(
        RuntimeTask(
            key="WL[file]", runner="WL", params=freeze_params(wl_params), seed=5
        )
    )
    return tasks


def payload_bytes(report):
    return [canonical_json(outcome.payload) for outcome in report.outcomes]


class TestDispatchParity:
    def test_all_backends_same_bytes(self, tmp_path):
        descriptor = generate_to_file(tmp_path / "inst.repro", 48, 64, seed=7)
        baseline = payload_bytes(TaskExecutor(workers=1).run(grid_tasks(descriptor)))
        report = TaskExecutor(workers=3).run(grid_tasks(descriptor))
        assert payload_bytes(report) == baseline
        assert [o.status for o in report.outcomes] == ["computed"] * 5

    def test_backing_never_changes_bytes(self, tmp_path):
        path = tmp_path / "inst.repro"
        generate_to_file(path, 48, 64, seed=7)
        with MmapSource.open(path) as source:
            packed = source.to_packed()
            mmap_desc = source.descriptor()
        from repro.setcover.source import HeapSource, SharedMemorySource

        heap_desc = HeapSource.from_packed(packed).descriptor()
        shared = SharedMemorySource.publish(packed)
        try:
            reports = {
                kind: payload_bytes(
                    TaskExecutor(workers=1).run(grid_tasks(descriptor))
                )
                for kind, descriptor in (
                    ("mmap", mmap_desc),
                    ("heap", heap_desc),
                    ("shared", shared.descriptor()),
                )
            }
        finally:
            shared.close()
        assert reports["mmap"] == reports["heap"] == reports["shared"]

    def test_backing_shares_cache_entries(self, tmp_path):
        path = tmp_path / "inst.repro"
        generate_to_file(path, 48, 64, seed=7)
        with MmapSource.open(path) as source:
            packed = source.to_packed()
            mmap_desc = source.descriptor()
        from repro.setcover.source import HeapSource

        store = ResultStore(tmp_path / "store")
        first = TaskExecutor(workers=1, store=store).run(grid_tasks(mmap_desc))
        assert [o.status for o in first.outcomes] == ["computed"] * 5
        heap_desc = HeapSource.from_packed(packed).descriptor()
        second = TaskExecutor(workers=1, store=store).run(grid_tasks(heap_desc))
        assert [o.status for o in second.outcomes] == ["cached"] * 5
        assert payload_bytes(second) == payload_bytes(first)


def store_payloads(store_dir):
    """Store payload files keyed by relative path, stats journals excluded."""
    out = {}
    for path in sorted(Path(store_dir).rglob("*")):
        if path.is_file() and "stats_journal" not in path.parts:
            out[str(path.relative_to(store_dir))] = path.read_bytes()
    return out


def pids_naming(text):
    """Pids of the live processes whose command line contains ``text``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue  # exited while we looked
        if text.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


class TestKilledRunResumes:
    """SIGKILL a pooled run mid-grid under crash faults; resume to clean bytes."""

    CELLS = [
        f"ADV[algorithm={algorithm},order={order},workload=random]"
        for algorithm in ("algorithm1", "saha_getoor", "emek_rosen", "demaine")
        for order in ("adversarial", "random")
    ]

    def run_cli(self, args, env_extra=None, check=True):
        env = {**os.environ, "PYTHONPATH": REPO_SRC}
        env.pop(FAULTS_ENV_VAR, None)
        env.update(env_extra or {})
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            env=env,
            capture_output=True,
            text=True,
        )
        if check:
            assert result.returncode == 0, result.stderr + result.stdout
        return result

    def test_resume_matches_clean_serial(self, tmp_path):
        instance = tmp_path / "inst.repro"
        self.run_cli(["gen-instance", str(instance), "--n", "48", "--m", "64", "--seed", "7"])

        clean = tmp_path / "store-clean"
        self.run_cli(
            ["run", *self.CELLS, "--quiet", "--store", str(clean),
             "--instance-file", str(instance)]
        )

        # Chaos leg: the worker pool, recoverable crash faults in the
        # workers, and a SIGKILL the moment the store holds some entries.
        resumed = tmp_path / "store-resumed"
        env = {**os.environ, "PYTHONPATH": REPO_SRC,
               FAULTS_ENV_VAR: "seed=3,executor.submit:crash:0.4:1"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "run", *self.CELLS, "--quiet",
             "--store", str(resumed), "--workers", "2",
             "--instance-file", str(instance)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        killed = False
        while time.monotonic() < deadline:
            entries = [
                p for p in resumed.rglob("*.json") if "quarantine" not in p.parts
            ] if resumed.exists() else []
            if entries and proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
                killed = True
                break
            if proc.poll() is not None:
                break  # finished before we could kill it — resume is a no-op
            time.sleep(0.02)
        proc.wait(timeout=60)
        # The entries that survived the kill (a write cut short may also
        # have left its tmp file, which the resumed run must remove).
        partial = {
            name: payload
            for name, payload in store_payloads(resumed).items()
            if not name.endswith(".tmp")
        }
        if killed:
            assert 0 < len(partial) <= len(self.CELLS)
            # The killed run's pool workers notice their parent is gone and
            # exit; every one of them names the store on its command line.
            orphans_gone = time.monotonic() + 5
            while pids_naming(str(resumed)) and time.monotonic() < orphans_gone:
                time.sleep(0.05)
            assert pids_naming(str(resumed)) == []

        # Restart against the same store without faults: cached entries are
        # reused, the rest recomputed, final bytes == clean serial store.
        result = self.run_cli(
            ["run", *self.CELLS, "--quiet", "--store", str(resumed),
             "--workers", "2", "--instance-file", str(instance)]
        )
        statuses = [
            line for line in result.stdout.splitlines() if line.startswith("[ADV")
        ]
        assert len(statuses) == len(self.CELLS)
        for name, payload in partial.items():
            # whatever survived the kill was reused byte-for-byte
            assert store_payloads(resumed)[name] == payload
        assert store_payloads(resumed) == store_payloads(clean)
