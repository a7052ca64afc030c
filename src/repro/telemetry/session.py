"""Telemetry sessions: activation, snapshots, aggregation, and JSONL export.

A :class:`TelemetrySession` is the only way telemetry turns on.  Entering the
session installs a fresh :class:`~repro.telemetry.spans.Tracer` and
:class:`~repro.telemetry.metrics.MetricsRegistry` into context variables; every
instrumentation point in the stack reads those variables and no-ops when they
are unset, which is what makes telemetry provably output-neutral — the
instrumented code paths are identical either way, only the recording differs.

Sessions also own the cross-process story: a worker process opens its own
session, runs the task, and ships :meth:`TelemetrySession.snapshot` back in the
task payload; the executor folds worker snapshots into the parent session with
:meth:`TelemetrySession.absorb` in submission order, and summarizes each one
into the compact per-store-entry block via :func:`summarize_snapshot`.

When constructed with ``trace_dir``, the session writes a trace JSONL file
(see :mod:`repro.telemetry.schema`) on exit.

Example — capture, snapshot, and the zero-capture default::

    >>> from repro.telemetry import metrics, spans
    >>> with TelemetrySession(label="doctest") as session:
    ...     with spans.span("engine.run", n=8):
    ...         metrics.add("engine.runs")
    >>> snap = session.snapshot()
    >>> snap["metrics"]["counters"]
    {'engine.runs': 1}
    >>> [s["name"] for s in snap["spans"]]
    ['engine.run']
    >>> active_session() is None
    True
"""

from __future__ import annotations

import json
import os
import time
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from repro.telemetry import metrics as _metrics
from repro.telemetry import spans as _spans
from repro.telemetry.metrics import MetricsRegistry, merge_counter_maps
from repro.telemetry.schema import TRACE_SCHEMA
from repro.telemetry.spans import Tracer, clock

PathLike = Union[str, Path]

_SESSION: "ContextVar[Optional[TelemetrySession]]" = ContextVar(
    "repro_telemetry_session", default=None
)


def active_session() -> "Optional[TelemetrySession]":
    """The telemetry session active in this context, or ``None``."""
    return _SESSION.get()


class TelemetrySession:
    """Context manager that turns telemetry capture on for its block.

    Parameters
    ----------
    label:
        Short name stamped into the trace run header (e.g. the CLI scenario).
    trace_dir:
        Directory to write the trace JSONL file into on exit.  ``None``
        captures in memory only (the cross-process worker mode).
    attrs:
        Extra JSON-serialisable fields for the run header (workers, backend…).
    """

    def __init__(
        self,
        label: str = "run",
        trace_dir: Optional[PathLike] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.label = label
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.attrs = dict(attrs or {})
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        self.started_wall = 0.0
        self.elapsed_s = 0.0
        self.trace_path: Optional[Path] = None
        self._started = 0.0
        self._tokens: Optional[tuple] = None

    # -- activation ---------------------------------------------------------
    def __enter__(self) -> "TelemetrySession":
        if self._tokens is not None:
            raise RuntimeError("TelemetrySession is not re-entrant")
        self.started_wall = time.time()
        self._started = clock()
        self._tokens = (
            _SESSION.set(self),
            _spans._TRACER.set(self.tracer),
            _metrics._ACTIVE.set(self.registry),
        )
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.elapsed_s = clock() - self._started
        tokens, self._tokens = self._tokens, None
        if tokens is not None:
            session_token, tracer_token, registry_token = tokens
            _metrics._ACTIVE.reset(registry_token)
            _spans._TRACER.reset(tracer_token)
            _SESSION.reset(session_token)
        if self.trace_dir is not None and exc_type is None:
            self.trace_path = self.write_trace(self.trace_dir)

    # -- snapshot / aggregation ---------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The session's full capture in transportable (JSON-ready) form."""
        return {
            "schema": TRACE_SCHEMA,
            "pid": os.getpid(),
            "label": self.label,
            "started_wall": self.started_wall,
            "elapsed_s": self.elapsed_s if self.elapsed_s else clock() - self._started,
            "spans": list(self.tracer.spans),
            "metrics": self.registry.snapshot(),
        }

    def absorb(
        self,
        snapshot: Optional[Dict[str, Any]],
        under: Optional[int] = None,
        extra_attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Fold a worker-session :meth:`snapshot` into this session.

        Span ids are re-based and roots re-parented under ``under``; metrics
        merge per :meth:`MetricsRegistry.merge_snapshot`.  Callers absorb in
        submission order so the aggregate is deterministic.
        """
        if not snapshot:
            return
        self.tracer.absorb(
            snapshot.get("spans") or [], under=under, extra_attrs=extra_attrs
        )
        self.registry.merge_snapshot(snapshot.get("metrics") or {})

    # -- export -------------------------------------------------------------
    def write_trace(self, directory: PathLike) -> Path:
        """Write the trace JSONL file; returns its path.

        The filename is ``trace-<label>-<pid>.jsonl`` (label sanitised), with
        a numeric suffix when the name is taken, so concurrent runs into one
        directory never clobber each other.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in self.label)
        base = f"trace-{safe or 'run'}-{os.getpid()}"
        path = directory / f"{base}.jsonl"
        suffix = 0
        while path.exists():
            suffix += 1
            path = directory / f"{base}-{suffix}.jsonl"
        header = {
            "event": "run",
            "schema": TRACE_SCHEMA,
            "label": self.label,
            "pid": os.getpid(),
            "started_wall": self.started_wall,
            "elapsed_s": self.elapsed_s,
            "attrs": self.attrs,
        }
        footer = {
            "event": "metrics",
            "schema": TRACE_SCHEMA,
            "pid": os.getpid(),
            "metrics": self.registry.snapshot(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.tracer.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
            handle.write(json.dumps(footer, sort_keys=True) + "\n")
        return path


def summarize_snapshot(snapshot: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Compress a session snapshot into the per-store-entry telemetry block.

    The block keeps the merged metrics and a per-span-name summary
    (``{name: {"count", "total_s"}}``) instead of the raw span list, so store
    entries stay small.  Returns ``None`` for an empty/missing snapshot.
    """
    if not snapshot:
        return None
    span_summary: Dict[str, Dict[str, float]] = {}
    for span in snapshot.get("spans") or []:
        entry = span_summary.setdefault(span["name"], {"count": 0, "total_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span.get("dur", 0.0)
    metrics_snapshot = snapshot.get("metrics") or {}
    return {
        "schema": snapshot.get("schema", TRACE_SCHEMA),
        "pid": snapshot.get("pid"),
        "elapsed_s": snapshot.get("elapsed_s", 0.0),
        "counters": dict(metrics_snapshot.get("counters") or {}),
        "gauges": dict(metrics_snapshot.get("gauges") or {}),
        "histograms": dict(metrics_snapshot.get("histograms") or {}),
        "span_summary": {name: span_summary[name] for name in sorted(span_summary)},
    }


def merge_telemetry_blocks(
    blocks: Iterable[Optional[Dict[str, Any]]]
) -> Optional[Dict[str, Any]]:
    """Aggregate per-entry telemetry blocks (see :func:`summarize_snapshot`).

    Counters sum; span summaries sum count/total; gauges keep the max of
    ``max`` and sum updates.  Returns ``None`` when no block is present.
    """
    present = [b for b in blocks if b]
    if not present:
        return None
    counters = merge_counter_maps(b.get("counters") or {} for b in present)
    span_summary: Dict[str, Dict[str, float]] = {}
    gauges: Dict[str, Dict[str, Any]] = {}
    elapsed = 0.0
    for block in present:
        elapsed += block.get("elapsed_s", 0.0)
        for name, entry in (block.get("span_summary") or {}).items():
            merged = span_summary.setdefault(name, {"count": 0, "total_s": 0.0})
            merged["count"] += entry.get("count", 0)
            merged["total_s"] += entry.get("total_s", 0.0)
        for name, gauge in (block.get("gauges") or {}).items():
            current = gauges.get(name)
            if current is None:
                gauges[name] = {
                    "last": gauge.get("last", 0),
                    "max": gauge.get("max", 0),
                    "updates": gauge.get("updates", 0),
                }
            else:
                current["last"] = gauge.get("last", current["last"])
                current["max"] = max(current["max"], gauge.get("max", 0))
                current["updates"] += gauge.get("updates", 0)
    return {
        "schema": TRACE_SCHEMA,
        "entries": len(present),
        "elapsed_s": elapsed,
        "counters": counters,
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "span_summary": {name: span_summary[name] for name in sorted(span_summary)},
    }
