"""Self-time attribution and the layer wrappers."""

import sys
import types

import pytest

from e2ebench.trace import LayerTracer, Target, attribute


def span(name, start, dur, pid=1, layer=None, **attrs):
    if layer is not None:
        attrs["layer"] = layer
        name = "bench." + name
    return {"name": name, "t_start": start, "dur": dur, "pid": pid, "attrs": attrs}


def test_nested_child_time_is_subtracted_from_the_parent():
    spans = [span("outer", 0.0, 10.0, layer="a"), span("inner", 2.0, 3.0, layer="b")]
    result = attribute(spans, 0.0, 10.0)
    assert result.layers["a"] == pytest.approx(7.0)
    assert result.layers["b"] == pytest.approx(3.0)
    assert result.unattributed_frac == pytest.approx(0.0)


def test_deeper_nesting_and_same_layer_children():
    spans = [
        span("a1", 0.0, 10.0, layer="a"),
        span("b1", 1.0, 6.0, layer="b"),
        span("a2", 2.0, 2.0, layer="a"),
        span("c1", 8.0, 1.0, layer="c"),
    ]
    result = attribute(spans, 0.0, 10.0)
    assert result.layers["a"] == pytest.approx(3.0 + 2.0)
    assert result.layers["b"] == pytest.approx(4.0)
    assert result.layers["c"] == pytest.approx(1.0)


def test_glue_spans_hold_no_layer():
    spans = [span("task.run", 0.0, 10.0), span("inner", 2.0, 3.0, layer="b")]
    result = attribute(spans, 0.0, 10.0)
    assert result.layers == {"b": pytest.approx(3.0)}
    assert result.unattributed_frac == pytest.approx(0.7)


def test_concurrent_worker_lanes_share_each_instant():
    # Two absorbed worker processes busy at once plus a parent-side span:
    # the layer totals may not exceed the window.
    spans = [
        span("engine.run", 0.0, 10.0, pid=2),
        span("sampler.dsc", 0.0, 4.0, pid=3),
        span("put", 4.0, 2.0, pid=1, layer="runtime"),
    ]
    result = attribute(spans, 0.0, 10.0)
    assert result.layers["lowerbound"] == pytest.approx(2.0)
    assert result.layers["runtime"] == pytest.approx(1.0)
    assert result.layers["streaming"] == pytest.approx(2.0 + 1.0 + 4.0)
    assert result.attributed_s <= 10.0 + 1e-9
    assert result.unattributed_frac == pytest.approx(0.0)


def test_absorbed_worker_snapshot_and_manufactured_spans():
    from repro.telemetry import TelemetrySession, span as program_span

    with TelemetrySession(label="worker") as worker:
        with program_span("task.run"):
            with program_span("engine.run"):
                pass
    snapshot = worker.snapshot()
    for record in snapshot["spans"]:
        record["pid"] = -7  # as if recorded in another process
    with TelemetrySession(label="parent") as parent:
        lifecycle = parent.tracer.add_span("task.lifecycle", duration=99.0)
        parent.absorb(snapshot, under=lifecycle)
    spans = parent.tracer.spans
    start = min(s["t_start"] for s in spans if s["name"] != "task.lifecycle")
    end = max(s["t_start"] + s["dur"] for s in spans if s["name"] != "task.lifecycle")
    result = attribute(spans, start, end)
    engine = next(s for s in spans if s["name"] == "engine.run")
    assert result.layers["streaming"] == pytest.approx(engine["dur"])
    assert result.attributed_s <= end - start + 1e-12


def test_carved_fine_time_moves_to_its_own_layer():
    spans = [span("solve", 0.0, 10.0, layer="greedy", carved={"kernels.numpy": 4.0})]
    result = attribute(spans, 0.0, 10.0)
    assert result.layers["greedy"] == pytest.approx(6.0)
    assert result.layers["kernels.numpy"] == pytest.approx(4.0)


def test_window_clips_spans_and_reference_overrides_wall():
    spans = [span("outer", -5.0, 10.0, layer="a")]
    result = attribute(spans, 0.0, 10.0, wall_s=20.0)
    assert result.layers["a"] == pytest.approx(5.0)
    assert result.unattributed_frac == pytest.approx(0.75)


def test_wrappers_patch_every_reference_and_restore_them():
    from repro.setcover import greedy
    from repro.telemetry import TelemetrySession
    from repro.workloads.random_instances import random_set_system

    original = greedy.greedy_set_cover
    probe = types.ModuleType("repro_e2ebench_probe")
    probe.solve = original
    probe.registry = {"greedy": original}
    sys.modules[probe.__name__] = probe
    tracer = LayerTracer([Target("repro.setcover.greedy", "greedy_set_cover", "greedy")])
    try:
        tracer.install()
        assert greedy.greedy_set_cover is not original
        assert probe.solve is greedy.greedy_set_cover
        assert probe.registry["greedy"] is greedy.greedy_set_cover
        system = random_set_system(20, 12, seed=3)
        with TelemetrySession(label="probe") as session:
            expected = original(system)
            assert probe.registry["greedy"](system) == expected
        names = [s["name"] for s in session.tracer.spans]
        assert names == ["bench.greedy.greedy_set_cover"]
        assert session.tracer.spans[0]["attrs"]["layer"] == "greedy"
    finally:
        tracer.uninstall()
        del sys.modules[probe.__name__]
    assert greedy.greedy_set_cover is original
    assert probe.solve is original
    assert probe.registry["greedy"] is original


def test_wrappers_record_nothing_without_a_session():
    from repro.setcover import greedy
    from repro.workloads.random_instances import random_set_system

    tracer = LayerTracer([Target("repro.setcover.greedy", "greedy_set_cover", "greedy")])
    system = random_set_system(20, 12, seed=3)
    expected = greedy.greedy_set_cover(system)
    tracer.install()
    try:
        assert greedy.greedy_set_cover(system) == expected
    finally:
        tracer.uninstall()
