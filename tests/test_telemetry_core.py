"""Unit tests for the telemetry core: spans, metrics, schema, sessions."""

import json

import pytest

from repro.kernels.pyint import PyIntKernel
from repro.telemetry import (
    TRACE_SCHEMA,
    TelemetrySession,
    active_session,
    instrument_kernel,
    measure_overhead,
    merge_telemetry_blocks,
    summarize_snapshot,
    validate_trace_dir,
    validate_trace_file,
    validate_trace_line,
)
from repro.telemetry import metrics, spans
from repro.telemetry.metrics import MetricsRegistry, merge_counter_maps
from repro.telemetry.spans import Tracer


class TestSpans:
    def test_noop_without_session(self):
        # The whole point: outside a session these are one-ContextVar no-ops.
        with spans.span("engine.run", n=4) as active:
            active.set(extra=1)
        spans.event("stream.pass", number=1)
        assert spans.active_tracer() is None

    def test_nesting_records_parent_ids(self):
        with TelemetrySession() as session:
            with spans.span("outer"):
                with spans.span("inner"):
                    pass
        recorded = {s["name"]: s for s in session.tracer.spans}
        assert recorded["outer"]["parent_id"] is None
        assert recorded["inner"]["parent_id"] == recorded["outer"]["span_id"]

    def test_attrs_and_set(self):
        with TelemetrySession() as session:
            with spans.span("alg1.solve", solver="greedy") as active:
                active.set(round_solution_size=3)
        (span,) = session.tracer.spans
        assert span["attrs"] == {"solver": "greedy", "round_solution_size": 3}
        assert span["dur"] >= 0

    def test_span_recorded_on_exception(self):
        with TelemetrySession() as session:
            with pytest.raises(ValueError):
                with spans.span("engine.run"):
                    raise ValueError("boom")
        assert [s["name"] for s in session.tracer.spans] == ["engine.run"]

    def test_event_is_zero_duration(self):
        with TelemetrySession() as session:
            spans.event("stream.pass", number=2)
        (span,) = session.tracer.spans
        assert span["dur"] == 0.0
        assert span["attrs"]["number"] == 2

    def test_absorb_rebases_and_reparents(self):
        worker = Tracer()
        worker.add_span("task.run", duration=1.0)
        parent = Tracer()
        lifecycle = parent.add_span("task.lifecycle", duration=2.0)
        parent.absorb(list(worker.spans), under=lifecycle, extra_attrs={"task": "k"})
        absorbed = [s for s in parent.spans if s["name"] == "task.run"]
        assert len(absorbed) == 1
        assert absorbed[0]["parent_id"] == lifecycle
        assert absorbed[0]["attrs"]["task"] == "k"
        ids = [s["span_id"] for s in parent.spans]
        assert len(ids) == len(set(ids)), "absorb must re-base span ids"


class TestMetrics:
    def test_noop_without_registry(self):
        metrics.add("kernel.calls.gain")
        metrics.observe("pass.sets_admitted", 5)
        metrics.gauge_set("space.total_words", 10)
        assert metrics.active() is None

    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        token = metrics._ACTIVE.set(registry)
        try:
            metrics.add("rng.draws", 3)
            metrics.add("rng.draws")
            metrics.gauge_set("space.total_words", 5)
            metrics.gauge_set("space.total_words", 2)
            metrics.observe("pass.sets_admitted", 7)
        finally:
            metrics._ACTIVE.reset(token)
        snap = registry.snapshot()
        assert snap["counters"] == {"rng.draws": 4}
        assert snap["gauges"]["space.total_words"]["last"] == 2
        assert snap["gauges"]["space.total_words"]["max"] == 5
        assert snap["gauges"]["space.total_words"]["updates"] == 2
        assert snap["histograms"]["pass.sets_admitted"]["count"] == 1

    def test_merge_snapshot_associative(self):
        def registry_with(n, gauge, hist):
            r = MetricsRegistry()
            r.count("c", n)
            r.gauge_set("g", gauge)
            r.observe("h", hist)
            return r

        parts = [registry_with(1, 5, 2), registry_with(2, 3, 9), registry_with(4, 8, 2)]
        left = MetricsRegistry()
        for part in parts:
            left.merge_snapshot(part.snapshot())

        inner = MetricsRegistry()
        inner.merge_snapshot(parts[1].snapshot())
        inner.merge_snapshot(parts[2].snapshot())
        right = MetricsRegistry()
        right.merge_snapshot(parts[0].snapshot())
        right.merge_snapshot(inner.snapshot())

        assert left.snapshot() == right.snapshot()

    def test_merge_counter_maps(self):
        merged = merge_counter_maps([{"a": 1, "b": 2}, {"b": 3}])
        assert merged == {"a": 1, "b": 5}


class TestSession:
    def test_activation_scoped(self):
        assert active_session() is None
        with TelemetrySession(label="t") as session:
            assert active_session() is session
            assert metrics.active() is session.registry
        assert active_session() is None
        assert metrics.active() is None

    def test_not_reentrant(self):
        session = TelemetrySession()
        with session:
            with pytest.raises(RuntimeError):
                session.__enter__()

    def test_snapshot_shape(self):
        with TelemetrySession(label="snap") as session:
            metrics.add("engine.runs")
            with spans.span("engine.run"):
                pass
        snap = session.snapshot()
        assert snap["schema"] == TRACE_SCHEMA
        assert snap["label"] == "snap"
        assert snap["metrics"]["counters"] == {"engine.runs": 1}
        assert [s["name"] for s in snap["spans"]] == ["engine.run"]
        assert snap["elapsed_s"] > 0

    def test_absorb_merges_spans_and_metrics(self):
        with TelemetrySession(label="worker") as worker:
            metrics.add("store.puts")
            with spans.span("task.run"):
                pass
        with TelemetrySession(label="parent") as parent:
            metrics.add("store.puts")
            under = parent.tracer.add_span("task.lifecycle", duration=0.5)
            parent.absorb(worker.snapshot(), under=under, extra_attrs={"task": "k"})
        assert parent.registry.counters == {"store.puts": 2}
        names = [s["name"] for s in parent.tracer.spans]
        assert "task.run" in names

    def test_write_trace_collision_suffix(self, tmp_path):
        with TelemetrySession(label="same") as a:
            pass
        with TelemetrySession(label="same") as b:
            pass
        first = a.write_trace(tmp_path)
        second = b.write_trace(tmp_path)
        assert first != second
        assert validate_trace_file(first) == []
        assert validate_trace_file(second) == []

    def test_trace_written_on_clean_exit_only(self, tmp_path):
        with pytest.raises(RuntimeError):
            with TelemetrySession(label="bad", trace_dir=tmp_path):
                raise RuntimeError("no trace for failed runs")
        assert list(tmp_path.glob("*.jsonl")) == []
        with TelemetrySession(label="good", trace_dir=tmp_path) as session:
            pass
        assert session.trace_path is not None
        assert validate_trace_file(session.trace_path) == []


class TestSummaries:
    def _snapshot(self):
        with TelemetrySession(label="s") as session:
            metrics.add("rng.draws", 10)
            with spans.span("sampler.dsc"):
                pass
            with spans.span("sampler.dsc"):
                pass
        return session.snapshot()

    def test_summarize_snapshot(self):
        block = summarize_snapshot(self._snapshot())
        assert block["counters"] == {"rng.draws": 10}
        assert block["span_summary"]["sampler.dsc"]["count"] == 2
        assert summarize_snapshot(None) is None
        assert summarize_snapshot({}) is None

    def test_merge_telemetry_blocks(self):
        block = summarize_snapshot(self._snapshot())
        merged = merge_telemetry_blocks([block, None, block])
        assert merged["entries"] == 2
        assert merged["counters"] == {"rng.draws": 20}
        assert merged["span_summary"]["sampler.dsc"]["count"] == 4
        assert merge_telemetry_blocks([]) is None
        assert merge_telemetry_blocks([None, None]) is None


class TestSchema:
    def test_valid_file_roundtrip(self, tmp_path):
        with TelemetrySession(label="rt", trace_dir=tmp_path) as session:
            metrics.add("engine.runs")
            with spans.span("engine.run", n=6):
                pass
        assert validate_trace_file(session.trace_path) == []
        results = validate_trace_dir(tmp_path)
        assert all(problems == [] for _, problems in results)

    def test_unknown_event_rejected(self):
        assert validate_trace_line({"event": "mystery"}) != []
        assert validate_trace_line("not an object") == ["line is not a JSON object"]

    def test_file_shape_enforced(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        span_line = {
            "event": "span", "name": "x", "span_id": 1, "parent_id": None,
            "t_start": 0.0, "t_wall": 0.0, "dur": 0.0, "attrs": {}, "pid": 1,
            "seq": 1,
        }
        path.write_text(json.dumps(span_line) + "\n")
        problems = validate_trace_file(path)
        assert any("first line must be the 'run' header" in p for p in problems)
        assert any("exactly one 'metrics'" in p for p in problems)

    def test_empty_and_corrupt_files(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert validate_trace_file(empty) == ["trace file is empty"]
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("{not json\n")
        assert any("invalid JSON" in p for p in validate_trace_file(corrupt))

    def test_empty_dir_reports_synthetic_problem(self, tmp_path):
        ((path, problems),) = validate_trace_dir(tmp_path)
        assert problems == ["no *.jsonl trace files found"]


class TestInstrumentation:
    def test_metering_counts_calls_and_words(self):
        with TelemetrySession() as session:
            kernel = instrument_kernel(PyIntKernel(100, [0b11, 0b100]))
            kernel.gains(uncovered=(1 << 100) - 1)
            kernel.gain(0, (1 << 100) - 1)
        counters = session.registry.counters
        # 100-element universe packs into ceil(100/64) = 2 words per row.
        assert counters["kernel.calls.gains"] == 1
        assert counters["kernel.words.gains"] == 4
        assert counters["kernel.calls.gain"] == 1
        assert counters["kernel.words.gain"] == 2

    def test_idempotent_and_transparent(self):
        with TelemetrySession():
            kernel = instrument_kernel(PyIntKernel(4, [0b1]))
            assert instrument_kernel(kernel) is kernel
            assert kernel.backend == "python"
            assert kernel.universe_size == 4
            assert kernel.num_sets == 1

    def test_tracker_metered(self):
        with TelemetrySession() as session:
            kernel = instrument_kernel(PyIntKernel(4, [0b0011, 0b1110]))
            tracker = kernel.gain_tracker((1 << 4) - 1)
            index, gain = tracker.best()
            tracker.cover(kernel.mask(index) if hasattr(kernel, "mask") else 0b1110)
        counters = session.registry.counters
        assert counters["kernel.calls.gain_tracker"] == 1
        assert counters["kernel.calls.tracker_best"] == 1
        assert counters["kernel.calls.tracker_cover"] == 1

    def test_kernel_built_in_session_routes_through_proxy(self):
        from repro.kernels import make_kernel
        from repro.telemetry.instrument import InstrumentedKernel

        plain = make_kernel(4, [0b1], backend="python")
        assert not isinstance(plain, InstrumentedKernel)
        with TelemetrySession():
            wrapped = make_kernel(4, [0b1], backend="python")
            assert isinstance(wrapped, InstrumentedKernel)


class TestProfiling:
    def test_cli_import_loads_no_profiler(self):
        import subprocess
        import sys

        code = "import sys, repro.cli; sys.exit('cProfile' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_measure_overhead_shape(self):
        result = measure_overhead(lambda: sum(range(50)), repeats=2)
        assert set(result) == {"off_s", "on_s", "ratio"}
        assert result["off_s"] > 0 and result["on_s"] > 0

    def test_measure_overhead_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            measure_overhead(lambda: None, repeats=0)
