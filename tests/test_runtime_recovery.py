"""Failure-recovery tests for the hardened executor and degradation ladder.

The resilience contract under test: failures may cost wall-clock (retries,
pool respawns, serial degradation) but never change bytes — every recovered
run's payloads are identical to a fault-free serial run's.
"""

from __future__ import annotations

import errno
import multiprocessing
import multiprocessing.context
import pickle
import time
from pathlib import Path

import pytest

from repro import exceptions
from repro.exceptions import CircuitOpenError, InjectedFaultError
from repro.kernels import HAS_NUMPY, PyIntKernel, make_kernel
from repro.resilience.durability import canonical_json
from repro.resilience.faults import FAULTS_ENV_VAR, fault_plan_active, parse_fault_spec
from repro.resilience.policy import RETRY_ENV_VAR
from repro.runtime import ResultStore, RuntimeTask, TaskExecutor, freeze_params
from repro.runtime.store import read_store_stats
from repro.telemetry.session import TelemetrySession


def grid_tasks(seeds=2):
    """A small, cheap scenario grid: E12 at two gadget sizes x ``seeds`` seeds."""
    return [
        RuntimeTask(
            key=f"E12[t={t},seed={seed}]",
            runner="E12",
            params=freeze_params({"t": t}),
            seed=seed,
        )
        for t in (2, 3)
        for seed in range(1, seeds + 1)
    ]


def payload_bytes(report):
    """Submission-ordered canonical payload bytes, the parity currency."""
    return [canonical_json(outcome.payload) for outcome in report.outcomes]


def children_left(before, within=2.0):
    """Child processes not in ``before`` still alive after ``within`` seconds."""
    deadline = time.monotonic() + within
    while True:
        left = [p for p in multiprocessing.active_children() if p not in before]
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.05)


@pytest.fixture
def clean_payloads(monkeypatch):
    """Fault-free serial baseline payloads for the grid."""
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    monkeypatch.delenv(RETRY_ENV_VAR, raising=False)
    return payload_bytes(TaskExecutor(workers=1).run(grid_tasks()))


def run_with_faults(
    monkeypatch, faults, retry=None, workers=2, tmp_path=None, tasks=None, chunksize=None
):
    """Run the grid under a fault schedule, returning (report, counters)."""
    monkeypatch.setenv(FAULTS_ENV_VAR, faults)
    if retry is None:
        monkeypatch.delenv(RETRY_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(RETRY_ENV_VAR, retry)
    store = ResultStore(tmp_path) if tmp_path is not None else None
    executor = TaskExecutor(workers=workers, store=store, chunksize=chunksize)
    with TelemetrySession(label="recovery-test") as session:
        report = executor.run(tasks or grid_tasks())
    return report, session.registry.snapshot()["counters"]


def serial_payloads(monkeypatch, tasks):
    """Fault-free serial payload bytes of ``tasks``."""
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    monkeypatch.delenv(RETRY_ENV_VAR, raising=False)
    return payload_bytes(TaskExecutor(workers=1).run(tasks))


class TestCrashRecovery:
    def test_worker_crash_respawns_pool_and_preserves_bytes(
        self, monkeypatch, clean_payloads
    ):
        # Every task crashes its worker on attempt 0; the requeued chunks run
        # at attempt 1 where the rule (until=1) no longer fires.
        report, counters = run_with_faults(
            monkeypatch, "seed=11,executor.submit:crash:1:1", workers=2
        )
        assert payload_bytes(report) == clean_payloads
        assert not report.interrupted
        assert counters.get("executor.pool_respawns", 0) >= 1
        assert counters.get("executor.worker_lost", 0) >= 1

    def test_partial_crash_schedule_preserves_bytes(self, monkeypatch, clean_payloads):
        report, counters = run_with_faults(
            monkeypatch, "seed=4,executor.submit:crash:0.5:1", workers=2
        )
        assert payload_bytes(report) == clean_payloads

    def test_only_the_lost_chunk_runs_again(self, monkeypatch):
        # One task per chunk: each crash costs its own worker and chunk, and
        # the chunks running on the other worker are never re-executed.
        faults = "seed=4,executor.submit:crash:0.5:1"
        plan = parse_fault_spec(faults)
        tasks = grid_tasks(seeds=4)
        crashing = [t for t in tasks if plan.decide("executor.submit", t.key, 0) == "crash"]
        assert 0 < len(crashing) < len(tasks)
        clean = serial_payloads(monkeypatch, tasks)
        report, counters = run_with_faults(
            monkeypatch, faults, workers=2, tasks=tasks, chunksize=1
        )
        assert payload_bytes(report) == clean
        assert counters.get("executor.worker_lost", 0) == len(crashing)
        assert counters.get("executor.pool_respawns", 0) == 1

    def test_crash_heavy_plans_recover_without_degrading(self, monkeypatch):
        # Many workers lost at one attempt generation count as one respawn,
        # so the respawn budget is not spent per dead worker.
        faults = "seed=4,executor.submit:crash:0.5:1"
        tasks = grid_tasks(seeds=8)
        clean = serial_payloads(monkeypatch, tasks)
        report, counters = run_with_faults(
            monkeypatch, faults, workers=4, tasks=tasks, chunksize=1
        )
        assert payload_bytes(report) == clean
        assert counters.get("degrade.serial_execution", 0) == 0
        assert counters.get("executor.pool_respawns", 0) == 1

    def test_persistent_crash_degrades_at_the_next_generation(self, monkeypatch):
        # Crashes at attempts 0-4: four loss generations exhaust the default
        # budget of three respawns, and the serial remainder starts at
        # attempt 4, where one in-process retry clears the fault.
        tasks = grid_tasks(seeds=4)
        clean = serial_payloads(monkeypatch, tasks)
        report, counters = run_with_faults(
            monkeypatch, "seed=11,executor.submit:crash:1:5", workers=2, tasks=tasks
        )
        assert payload_bytes(report) == clean
        assert counters.get("degrade.serial_execution", 0) == 1
        assert counters.get("executor.pool_respawns", 0) == 4


class TestTaskErrors:
    def test_task_error_from_a_worker_is_not_a_lost_worker(self, monkeypatch):
        # Every attempt raises: the worker's retries run out and the task's
        # own exception comes back over the pipe, re-raised as it was.
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=1,executor.submit:raise:1:99")
        monkeypatch.setenv(RETRY_ENV_VAR, "attempts=2,backoff=0")
        with TelemetrySession(label="task-error") as session:
            with pytest.raises(InjectedFaultError) as info:
                TaskExecutor(workers=2).run(grid_tasks())
        counters = session.registry.snapshot()["counters"]
        assert info.value.site == "executor.submit" and info.value.attempt == 1
        assert counters.get("executor.worker_lost", 0) == 0
        assert counters.get("executor.pool_respawns", 0) == 0

    @pytest.mark.parametrize(
        "error",
        [
            exceptions.SpaceBudgetExceededError(3, 2),
            exceptions.InjectedFaultError("executor.submit", "k", "raise", 2),
            exceptions.InstanceIntegrityError("f", "a" * 64, "b" * 64),
            exceptions.DeadlineExceededError(0.5),
            exceptions.CircuitOpenError(3, 2),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_library_errors_survive_a_pipe(self, error):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert (copy.args, vars(copy), str(copy)) == (error.args, vars(error), str(error))


class TestCorruptPayloadRecovery:
    def test_corrupted_payload_is_rejected_and_recomputed(
        self, monkeypatch, clean_payloads
    ):
        report, counters = run_with_faults(
            monkeypatch, "seed=1,executor.submit:corrupt:1:1", workers=1
        )
        assert payload_bytes(report) == clean_payloads
        assert counters.get("executor.payload_rejected", 0) == len(clean_payloads)
        # The merged payloads never leak the corruption marker or checksum.
        for outcome in report.outcomes:
            assert "__corrupted__" not in outcome.payload
            assert "__integrity__" not in outcome.payload

    def test_corrupt_across_workers(self, monkeypatch, clean_payloads):
        report, _ = run_with_faults(
            monkeypatch, "seed=1,executor.submit:corrupt:0.5:1", workers=2
        )
        assert payload_bytes(report) == clean_payloads


class TestTimeoutRecovery:
    def test_hung_worker_trips_deadline_and_requeues(self, monkeypatch, clean_payloads):
        # Workers hang far past the 0.5s/task deadline; the parent abandons
        # the pool, terminates the hung workers, and re-executes everything.
        before = set(multiprocessing.active_children())
        report, counters = run_with_faults(
            monkeypatch,
            "seed=1,hang=30,executor.submit:hang:1:1",
            retry="timeout=0.5",
            workers=2,
        )
        assert payload_bytes(report) == clean_payloads
        assert counters.get("executor.timeouts", 0) >= 1
        assert counters.get("executor.pool_respawns", 0) >= 1
        assert children_left(before) == []


class TestSerialDegradation:
    def test_pool_loss_beyond_budget_degrades_to_serial(
        self, monkeypatch, clean_payloads
    ):
        report, counters = run_with_faults(
            monkeypatch,
            "seed=11,executor.submit:crash:1:1",
            retry="respawns=0",
            workers=2,
        )
        assert payload_bytes(report) == clean_payloads
        assert counters.get("degrade.serial_execution", 0) == 1
        assert counters.get("degrade.total", 0) >= 1


class TestWorkerStartFailure:
    def test_failed_start_degrades_to_serial_and_reaps_the_started_worker(
        self, monkeypatch, clean_payloads
    ):
        # The second worker start fails while the first worker is already
        # running: the run must degrade to serial and leave no child behind.
        original = multiprocessing.context.ForkProcess._Popen
        starts = []

        def second_start_fails(process_obj):
            starts.append(process_obj)
            if len(starts) == 2:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return original(process_obj)

        monkeypatch.setattr(
            multiprocessing.context.ForkProcess, "_Popen", staticmethod(second_start_fails)
        )
        before = set(multiprocessing.active_children())
        with TelemetrySession(label="start-failure") as session:
            report = TaskExecutor(workers=3).run(grid_tasks())
        counters = session.registry.snapshot()["counters"]
        assert len(starts) == 2
        assert payload_bytes(report) == clean_payloads
        assert counters.get("degrade.serial_execution", 0) == 1
        assert children_left(before) == []


class TestCircuitBreaker:
    def test_persistent_pool_loss_opens_the_circuit(self, monkeypatch):
        # until=5 keeps the crash firing across respawn generations, and a
        # breaker threshold of 1 turns the first loss into a fast failure.
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=11,executor.submit:crash:1:5")
        monkeypatch.setenv(RETRY_ENV_VAR, "breaker=1,respawns=10")
        with pytest.raises(CircuitOpenError):
            TaskExecutor(workers=2).run(grid_tasks())


class TestKeyboardInterrupt:
    def test_interrupt_yields_partial_report_with_flushed_stats(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        import repro.runtime.executor as executor_module

        tasks = grid_tasks()
        original = executor_module.execute_task

        def interrupting(task):
            if task.key == tasks[2].key:
                raise KeyboardInterrupt
            return original(task)

        monkeypatch.setattr(executor_module, "execute_task", interrupting)
        store = ResultStore(tmp_path)
        report = TaskExecutor(workers=1, store=store).run(tasks)
        assert report.interrupted
        assert len(report) == 2
        assert [o.task.key for o in report.outcomes] == [t.key for t in tasks[:2]]
        # Stats were flushed on the way out, and the finished work persisted.
        assert read_store_stats(tmp_path)["puts"] == 2
        assert len(store) == 2

    def test_uninterrupted_runs_report_interrupted_false(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        report = TaskExecutor(workers=1).run(grid_tasks()[:1])
        assert report.interrupted is False


class TestKernelDegradation:
    @pytest.mark.skipif(not HAS_NUMPY, reason="needs the NumPy backend")
    def test_failed_numpy_build_falls_back_to_pyint(self):
        masks = [0b011, 0b101, 0b110]
        with fault_plan_active(parse_fault_spec("seed=1,kernel.make:raise:1:1")):
            with TelemetrySession(label="kernel-test") as session:
                kernel = make_kernel(3, masks, backend="numpy")
            counters = session.registry.snapshot()["counters"]
        # The metering proxy may wrap it; the backend underneath is pure.
        backend = getattr(kernel, "_kernel", kernel)
        assert isinstance(backend, PyIntKernel)
        assert counters.get("degrade.kernel_backend", 0) == 1

    @pytest.mark.skipif(not HAS_NUMPY, reason="needs the NumPy backend")
    def test_fallback_kernel_is_bit_identical(self):
        masks = [0b0111, 0b1100, 0b1010, 0b0001]
        with fault_plan_active(parse_fault_spec("seed=1,kernel.make:raise:1:1")):
            degraded = make_kernel(4, masks, backend="numpy")
        clean = make_kernel(4, masks, backend="python")
        universe = (1 << 4) - 1
        assert degraded.gains(universe) == clean.gains(universe)


class TestOutcomeRowDegradation:
    def test_space_budget_overrun_is_an_outcome_not_a_failure(self):
        from repro.experiments.workload_defs import run_workload_sweep

        with TelemetrySession(label="budget-test") as session:
            result = run_workload_sweep(
                workload="random", algorithm="store_everything", space_budget=1, seed=3
            )
            counters = session.registry.snapshot()["counters"]
        assert result.findings["budget_exceeded"] is True
        assert counters.get("degrade.outcome_row", 0) == 1


class TestSignalDrain:
    """SIGTERM means the same thing to both front ends: drain gracefully."""

    def test_executor_drains_on_sigterm_like_an_interrupt(
        self, monkeypatch, tmp_path
    ):
        import signal

        import repro.runtime.executor as executor_module
        from repro.resilience.drain import drain_on_signal

        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        tasks = grid_tasks()
        original = executor_module.execute_task

        def signalled(task):
            if task.key == tasks[2].key:
                # A real delivery, not a raised KeyboardInterrupt: the drain
                # scope's handler must do the translation itself.
                signal.raise_signal(signal.SIGTERM)
            return original(task)

        monkeypatch.setattr(executor_module, "execute_task", signalled)
        store = ResultStore(tmp_path)
        with drain_on_signal():
            report = TaskExecutor(workers=1, store=store).run(tasks)
        assert report.interrupted
        assert len(report) == 2
        # Finished work was flushed before the drain returned.
        assert read_store_stats(tmp_path)["puts"] == 2

    def test_drain_scope_restores_previous_handlers(self):
        import signal

        from repro.resilience.drain import drain_on_signal

        before = signal.getsignal(signal.SIGTERM)
        with drain_on_signal(callback=lambda s: None):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_run_drains_on_sigterm_like_an_interrupt(self, tmp_path):
        """End-to-end: SIGTERM to a pooled `repro run` takes the SIGINT path."""
        import os
        import re
        import signal
        import subprocess
        import sys

        store = tmp_path / "store"
        out = tmp_path / "out.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env.pop(RETRY_ENV_VAR, None)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "run", "adversarial",
                "--workers", "2", "--store", str(store), "--quiet",
                "--json", str(out),
                # Every first attempt hangs 30 s: the run is mid-flight.
                "--faults", "seed=1,executor.submit:hang:1:1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            # The store opens inside the drain scope; give the pool a moment
            # to fork its workers.
            deadline = time.monotonic() + 30
            while not store.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(1.0)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stderr
        assert re.search(r"^interrupted: \d+ of 48 tasks finished$", stderr, re.M), stderr
        assert not out.exists()
        assert (store / "stats_journal").exists()  # store stats were flushed
        # Forked workers carry the parent's command line, store path included.
        time.sleep(0.5)
        left = []
        for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
            try:
                if str(store).encode() in cmdline.read_bytes():
                    left.append(cmdline.parent.name)
            except OSError:
                continue
        assert left == []

    def test_service_drains_on_sigterm(self):
        """End-to-end: `repro serve` answers, then SIGTERM drains to exit 0."""
        import asyncio
        import os
        import signal
        import subprocess
        import sys

        from repro.service.client import AsyncServiceClient

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env.pop(FAULTS_ENV_VAR, None)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--workers", "0",
                "--instance", "hot=random:n=24,m=16,seed=2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("listening on "), banner
            host, _, port = banner.rpartition(" ")[2].rpartition(":")

            async def cover():
                async with AsyncServiceClient(host, int(port)) as client:
                    return await client.request("cover")

            response = asyncio.run(cover())
            assert response["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "drained:" in stdout
        assert "ok=1" in stdout or "requests=1" in stdout
