"""Integration tests: telemetry across the executor, store, CLI, and report."""

import json

import pytest

from repro.analysis import build_report, load_store
from repro.analysis.render import render_markdown
from repro.cli import main
from repro.runtime.executor import TELEMETRY_KEY, TaskExecutor
from repro.runtime.scenarios import freeze_params, get_scenario
from repro.runtime.store import ResultStore, read_store_stats
from repro.runtime.tasks import RuntimeTask, tasks_from_scenario
from repro.telemetry import TelemetrySession, validate_trace_dir, validate_trace_file


def grid_tasks(count=3):
    return [
        RuntimeTask(
            key=f"E12[t={t},seed=1]",
            runner="E12",
            params=freeze_params({"t": t}),
            seed=1,
        )
        for t in range(2, 2 + count)
    ]


SCENARIO = "ADV[algorithm=saha_getoor,order=adversarial,workload=dsc]"


class TestExecutorAggregation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_snapshots_absorbed_in_parent(self, workers):
        tasks = grid_tasks()
        with TelemetrySession(label="agg") as session:
            report = TaskExecutor(workers=workers).run(tasks)
        names = [s["name"] for s in session.tracer.spans]
        # One manufactured lifecycle per task, plus the worker's own task.run.
        assert names.count("task.lifecycle") == len(tasks)
        assert names.count("task.run") == len(tasks)
        assert names.count("task.queue_wait") == len(tasks)
        assert names.count("task.merge") == len(tasks)
        lifecycles = [s for s in session.tracer.spans if s["name"] == "task.lifecycle"]
        assert [s["attrs"]["key"] for s in lifecycles] == [t.key for t in tasks]
        merged = report.telemetry
        assert merged is not None and merged["entries"] == len(tasks)

    def test_serial_queue_wait_counts_the_tasks_run_before(self):
        tasks = (
            tasks_from_scenario(get_scenario("E12"))
            + tasks_from_scenario(get_scenario("E7"))
            + tasks_from_scenario(get_scenario("E12"), seed_override=5)
        )
        with TelemetrySession(label="serial") as session:
            TaskExecutor(workers=1).run(tasks)
        spans = session.tracer.spans
        waits = [s["dur"] for s in spans if s["name"] == "task.queue_wait"]
        runs = [s["dur"] for s in spans if s["name"] == "task.run"]
        # The whole batch is queued at once, so the second task waits at
        # least as long as the first one ran.
        assert waits[1] >= runs[0] > 0.0

    def test_reserved_payload_key_never_leaks(self):
        tasks = grid_tasks()
        with TelemetrySession():
            report = TaskExecutor(workers=2).run(tasks)
        for outcome in report.outcomes:
            assert TELEMETRY_KEY not in outcome.payload
            assert outcome.telemetry is not None
            # E12 exercises no instrumented counters, but every worker run
            # records at least its task.run span.
            assert "task.run" in outcome.telemetry["span_summary"]

    def test_cached_outcomes_replay_stored_telemetry(self, tmp_path):
        tasks = grid_tasks()
        with TelemetrySession():
            TaskExecutor(workers=1, store=ResultStore(tmp_path)).run(tasks)
        with TelemetrySession():
            second = TaskExecutor(workers=1, store=ResultStore(tmp_path)).run(tasks)
        assert all(o.status == "cached" for o in second.outcomes)
        assert all(o.telemetry is not None for o in second.outcomes)


class TestStoreStatsPersistence:
    def test_flush_accumulates_across_runs(self, tmp_path):
        tasks = grid_tasks()
        TaskExecutor(workers=1, store=ResultStore(tmp_path)).run(tasks)
        stats = read_store_stats(tmp_path)
        assert stats == {
            "hits": 0, "misses": len(tasks), "puts": len(tasks), "skips": 0,
            "quarantined": 0,
        }
        TaskExecutor(workers=1, store=ResultStore(tmp_path)).run(tasks)
        stats = read_store_stats(tmp_path)
        assert stats["hits"] == len(tasks)
        assert stats["misses"] == len(tasks)
        assert stats["skips"] == len(tasks)

    def test_stats_file_invisible_to_entry_globs(self, tmp_path):
        store = ResultStore(tmp_path)
        TaskExecutor(workers=1, store=store).run(grid_tasks(1))
        analysis = load_store(tmp_path)
        assert analysis.unreadable == []
        assert analysis.store_stats is not None

    def test_corrupt_stats_read_as_absent(self, tmp_path):
        (tmp_path / "store_stats.json").write_text("{broken")
        assert read_store_stats(tmp_path) is None


class TestCliTrace:
    def test_run_trace_writes_valid_jsonl(self, tmp_path, capsys):
        store = tmp_path / "store"
        traces = tmp_path / "traces"
        code = main(
            ["run", SCENARIO, "--store", str(store), "--trace", str(traces), "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote trace:" in out
        results = validate_trace_dir(traces)
        assert len(results) == 1
        path, problems = results[0]
        assert problems == []
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["event"] == "run"
        assert lines[-1]["event"] == "metrics"
        assert lines[-1]["metrics"]["counters"], "merged counters must be present"

    def test_validate_trace_command(self, tmp_path, capsys):
        with TelemetrySession(label="ok", trace_dir=tmp_path) as session:
            pass
        assert main(["validate-trace", str(tmp_path)]) == 0
        assert main(["validate-trace", str(session.trace_path)]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["validate-trace", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_validate_trace_missing_path(self):
        with pytest.raises(SystemExit):
            main(["validate-trace", "/nonexistent/nowhere"])


class TestReportTelemetrySection:
    def test_section_rendered_for_captured_store(self, tmp_path):
        store = tmp_path / "store"
        code = main(
            ["run", SCENARIO, "--store", str(store),
             "--trace", str(tmp_path / "traces"), "--quiet"]
        )
        assert code == 0
        markdown = render_markdown(build_report(load_store(store)))
        assert "## Telemetry" in markdown
        assert "kernel" in markdown  # per-cell counters table
        assert "`engine.run`" in markdown or "engine.runs" in markdown

    def test_section_absent_without_capture(self, tmp_path):
        tasks = grid_tasks(1)
        # No session, no store: build analysis from entries written manually.
        store = ResultStore(tmp_path)
        store.put(tasks[0], {"experiment_id": "E12", "title": "t", "table": {},
                             "findings": {}})
        analysis = load_store(tmp_path)
        analysis.store_stats = None  # as if no run ever flushed stats
        markdown = render_markdown(build_report(analysis))
        assert "## Telemetry" not in markdown

    def test_stats_only_store_renders_activity(self, tmp_path):
        store = ResultStore(tmp_path)
        TaskExecutor(workers=1, store=store).run(grid_tasks(1))
        markdown = render_markdown(build_report(load_store(tmp_path)))
        assert "## Telemetry" in markdown
        assert "store_stats.json" in markdown
        assert "No stored cell carries a telemetry block" in markdown
