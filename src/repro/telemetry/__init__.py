"""Structured observability for the whole stack, with zero effect on outputs.

``repro.telemetry`` gives every layer — runtime executor, streaming engine,
Algorithm 1, the kernels, the RNG, the lower-bound samplers — a shared
measurement substrate:

* **Spans** (:mod:`~repro.telemetry.spans`): a contextvars-based tracer;
  instrumented code opens ``span("engine.run", n=...)`` blocks that nest
  automatically and are timed with ``time.perf_counter`` (exported as
  :data:`clock`, the one duration clock the stack uses).
* **Metrics** (:mod:`~repro.telemetry.metrics`): counters / gauges /
  histograms with deterministic merge — kernel words processed, RNG draws,
  store hits, per-pass admission histograms, SpaceMeter high-water gauges.
* **Sessions** (:mod:`~repro.telemetry.session`): the on-switch.  All
  instrumentation points no-op (one context-variable load) unless a
  :class:`TelemetrySession` is active, which is what makes telemetry provably
  output-neutral.  Sessions snapshot for cross-process aggregation and export
  trace JSONL files (schema in :mod:`~repro.telemetry.schema`,
  ``repro validate-trace`` checks them).
* **Overhead guard** (:mod:`~repro.telemetry.profiling`): the measurement
  behind the ≤5% gate.

See ``docs/observability.md`` for the span taxonomy and metric name registry.

Example — nothing records without a session; everything does inside one::

    >>> with span("warmup"):
    ...     add("demo.counter")
    >>> with TelemetrySession(label="demo") as session:
    ...     with span("engine.run"):
    ...         add("demo.counter", 2)
    >>> session.snapshot()["metrics"]["counters"]
    {'demo.counter': 2}
"""

from repro.telemetry.metrics import (
    MetricsRegistry,
    add,
    gauge_set,
    merge_counter_maps,
    observe,
)
from repro.telemetry.profiling import measure_overhead
from repro.telemetry.schema import (
    TRACE_SCHEMA,
    validate_trace_dir,
    validate_trace_file,
    validate_trace_line,
)
from repro.telemetry.session import (
    TelemetrySession,
    active_session,
    merge_telemetry_blocks,
    summarize_snapshot,
)
from repro.telemetry.spans import Tracer, active_tracer, clock, event, span
from repro.telemetry.instrument import (
    InstrumentedKernel,
    InstrumentedTracker,
    instrument_kernel,
)

__all__ = [
    "InstrumentedKernel",
    "InstrumentedTracker",
    "MetricsRegistry",
    "TRACE_SCHEMA",
    "TelemetrySession",
    "Tracer",
    "active_session",
    "active_tracer",
    "add",
    "clock",
    "event",
    "gauge_set",
    "instrument_kernel",
    "measure_overhead",
    "merge_counter_maps",
    "merge_telemetry_blocks",
    "observe",
    "span",
    "summarize_snapshot",
    "validate_trace_dir",
    "validate_trace_file",
    "validate_trace_line",
]
