"""Per-layer metrics of a traced run (``--trace 1``).

Every name in :data:`PER_LAYER` is reported for every workload; a layer a
workload never enters reports 0.  Self times (``*.self_s``) are wall-clock
shares from :func:`e2ebench.trace.attribute`; named call times
(``source.open_s``, ``runtime.store_put_s``, ``algorithm.<name>_s``, ...)
are inclusive seconds summed over every process.  Totals are per traced
unit of work (one pass, or one serving session).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from e2ebench.stats import median, nearest_rank
from e2ebench.trace import SPAN_PREFIX, attribute

#: The streaming algorithms ``algorithm.<name>_s`` is reported for.
ALGORITHMS = (
    "assadi-algorithm1",
    "assadi-algorithm1-guessing",
    "har-peled-iterative-pruning",
    "demaine-progressive-greedy",
    "saha-getoor-greedy",
    "emek-rosen-semi-streaming",
    "store-everything-setcover",
    "store-everything-maxcover",
    "streaming-max-coverage",
    "mcgregor-vu-maxcover",
    "setcover-value-estimator",
    "counting-bound-estimator",
)

KERNEL_FLAVOURS = ("python", "numpy", "chunked", "compiled")

#: Named phases of an ``instance-grid`` unit (the two backings and the
#: store-answered re-run), reported as the median of the untraced units of
#: a traced run.
PHASES = ("mmap", "heap", "warm")

SAMPLER_KEYS = (
    "lowerbound.sample_dsc",
    "lowerbound.sample_dsc_random_partition",
    "lowerbound.sample_dmc",
    "lowerbound.coverage_shortfall_trial",
)
EXACT_CALL_KEYS = ("exact.exact_set_cover", "exact.exact_max_coverage")

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.self_s", "s"),
    ("workloads.calls", "count"),
    ("rng.draws", "count"),
    ("workloads.ns_per_draw", "ns"),
    ("lowerbound.self_s", "s"),
    ("lowerbound.samples", "count"),
    ("exact.self_s", "s"),
    ("exact.calls", "count"),
    ("greedy.self_s", "s"),
    ("greedy.calls", "count"),
    ("source.open_s", "s"),
    ("source.decode_s", "s"),
    ("source.rows_decoded", "count"),
    *((f"kernels.self_s.{flavour}", "s") for flavour in KERNEL_FLAVOURS),
    ("kernels.words", "count"),
    ("kernels.ns_per_word", "ns"),
    ("streaming.self_s", "s"),
    ("streaming.passes", "count"),
    ("streaming.sets_streamed", "count"),
    *((f"algorithm.{name}_s", "s") for name in ALGORITHMS),
    ("algorithm.other_s", "s"),
    ("communication.self_s", "s"),
    ("infotheory.self_s", "s"),
    ("runtime.self_s", "s"),
    ("runtime.fingerprint_s", "s"),
    ("runtime.store_put_s", "s"),
    ("runtime.store_fetch_s", "s"),
    ("runtime.queue_wait_s", "s"),
    ("runtime.task_compute_s", "s"),
    ("runtime.busy_frac", "frac"),
    ("runtime.store_hits", "count"),
    ("runtime.store_misses", "count"),
    ("service.self_s", "s"),
    ("service.cache_hit_frac", "frac"),
    ("service.cache_lookups", "count"),
    ("service.batch_size_mean", "count"),
    ("service.pool_batch_ms_p50", "ms"),
    ("service.pool_batch_ms_p95", "ms"),
    ("service.wait_ms_p50", "ms"),
    ("service.compute_ms.cover", "ms"),
    ("service.compute_ms.maxcover", "ms"),
    ("service.compute_ms.estimate", "ms"),
    ("service.respawns", "count"),
    ("loadgen.lag_ms_p95", "ms"),
    *((f"phase.{name}_ms", "ms") for name in PHASES),
    ("latency.tail_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.units", "count"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)


@dataclass
class TracedUnit:
    """The capture of one traced unit of work.

    ``start``/``end`` bound the attribution window on the span clock;
    ``reference_s`` is the wall the unattributed share is taken of (the
    unit's wall, or for serving the time some request was in flight).
    ``service`` holds the serving extras: pool batches, worker compute
    times, and the answers with their due/sent/done stamps.
    """

    spans: List[Dict[str, Any]]
    counters: Dict[str, float]
    histograms: Dict[str, Dict[str, Any]]
    start: float
    end: float
    reference_s: float
    workers: int = 1
    service: Dict[str, Any] = field(default_factory=dict)


def _span_total(spans: Sequence[Dict[str, Any]], key: str) -> float:
    """Inclusive seconds of calls under ``key``: spans plus nested re-entries."""
    total = 0.0
    for record in spans:
        attrs = record.get("attrs") or {}
        if record["name"] == SPAN_PREFIX + key:
            total += record["dur"]
        total += (attrs.get("incl") or {}).get(key, 0.0)
    return total


def _span_count(spans: Sequence[Dict[str, Any]], keys: Sequence[str]) -> int:
    count = 0
    for record in spans:
        attrs = record.get("attrs") or {}
        if record["name"].startswith(SPAN_PREFIX) and attrs.get("key") in keys:
            count += 1
        counts = attrs.get("counts") or {}
        count += sum(counts.get(key, 0) for key in keys)
    return count


def unit_metrics(unit: TracedUnit) -> Dict[str, float]:
    """Additive per-layer quantities of one traced unit."""
    spans = unit.spans
    attribution = attribute(spans, unit.start, unit.end, wall_s=unit.reference_s)
    layers = attribution.layers
    counters = unit.counters
    out: Dict[str, float] = defaultdict(float)
    for name in ("workloads", "lowerbound", "exact", "greedy", "streaming",
                 "communication", "infotheory", "runtime", "service"):
        out[f"{name}.self_s"] = layers.get(name, 0.0)
    for flavour in KERNEL_FLAVOURS:
        out[f"kernels.self_s.{flavour}"] = layers.get(f"kernels.{flavour}", 0.0)
    out["attributed_s"] = attribution.attributed_s
    out["trace.wall_s"] = attribution.wall_s
    for layer, seconds in layers.items():
        out[f"layer:{layer}"] = seconds

    workload_spans = [
        s for s in spans
        if s["name"].startswith(SPAN_PREFIX) and (s.get("attrs") or {}).get("layer") == "workloads"
    ]
    out["workloads.calls"] = len(workload_spans)
    out["workloads.draws"] = sum((s["attrs"].get("draws") or 0) for s in workload_spans)
    out["rng.draws"] = counters.get("rng.draws", 0)
    out["lowerbound.samples"] = _span_count(spans, SAMPLER_KEYS)
    out["exact.calls"] = _span_count(spans, EXACT_CALL_KEYS)
    out["greedy.calls"] = sum(
        1 for s in spans
        if s["name"].startswith(SPAN_PREFIX) and (s.get("attrs") or {}).get("layer") == "greedy"
    ) + sum(
        count for s in spans for key, count in ((s.get("attrs") or {}).get("counts") or {}).items()
        if key.startswith("greedy.")
    )

    carved: Dict[str, float] = defaultdict(float)
    for record in spans:
        attrs = record.get("attrs") or {}
        for key, seconds in (attrs.get("carved") or {}).items():
            carved[key] += seconds
        out["source.rows_decoded"] += (attrs.get("counts") or {}).get("source.rows", 0) + (
            attrs.get("rows") or 0
        )
    out["source.open_s"] = _span_total(spans, "source.open")
    out["source.decode_s"] = carved["source.decode"] + _span_total(spans, "source.decode")
    out["kernels.lane_s"] = sum(v for k, v in carved.items() if k.startswith("kernels."))
    out["kernels.words"] = sum(v for k, v in counters.items() if k.startswith("kernel.words."))

    out["streaming.passes"] = counters.get("stream.passes", 0)
    out["streaming.sets_streamed"] = counters.get("stream.sets_streamed", 0)
    for record in spans:
        attrs = record.get("attrs") or {}
        algorithm = attrs.get("algorithm")
        if algorithm is None or not record["name"].startswith(SPAN_PREFIX):
            continue
        name = algorithm if algorithm in ALGORITHMS else "other"
        out[f"algorithm.{name}_s"] += record["dur"]

    out["runtime.fingerprint_s"] = _span_total(spans, "runtime.fingerprint")
    out["runtime.store_put_s"] = _span_total(spans, "runtime.store_put")
    out["runtime.store_fetch_s"] = _span_total(spans, "runtime.store_fetch")
    out["runtime.queue_wait_s"] = sum(s["dur"] for s in spans if s["name"] == "task.queue_wait")
    out["runtime.task_compute_s"] = sum(s["dur"] for s in spans if s["name"] == "task.run")
    out["runtime.store_hits"] = counters.get("store.hits", 0)
    out["runtime.store_misses"] = counters.get("store.misses", 0)
    out["runtime.capacity_s"] = unit.workers * (unit.end - unit.start)

    hits = counters.get("service.cache_hits", 0)
    misses = counters.get("service.cache_misses", 0)
    out["service.cache_hits"] = hits
    out["service.cache_lookups"] = hits + misses
    batch = unit.histograms.get("service.batch_size") or {}
    out["service.batch_count"] = batch.get("count", 0)
    out["service.batch_items"] = batch.get("total", 0)
    out["service.respawns"] = unit.service.get("respawns", 0)
    return out


def _service_samples(services: Sequence[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Pooled serving samples (milliseconds) across traced sessions."""
    pooled: Dict[str, List[float]] = defaultdict(list)
    for service in services:
        pool_time: Dict[str, float] = {}
        for duration, request_ids in service.get("batches", []):
            pooled["pool_batch_ms"].append(duration * 1000.0)
            for request_id in request_ids:
                pool_time[request_id] = duration
        for request_id, kind, seconds in service.get("compute", []):
            pooled[f"compute_ms.{kind}"].append(seconds * 1000.0)
        for answer in service.get("answers", []):
            pooled["lag_ms"].append((answer.sent - answer.due) * 1000.0)
            if answer.status == "ok":
                latency = answer.done - answer.due
                waited = latency - pool_time.get(f"b{answer.index}", 0.0)
                pooled["wait_ms"].append(waited * 1000.0)
    return pooled


def summarize(
    units: Sequence[Dict[str, float]],
    services: Sequence[Dict[str, Any]],
    untraced_s: Sequence[float],
    traced_s: Sequence[float],
    phases: Dict[str, List[float]],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one run.

    ``units`` are the :func:`unit_metrics` of its traced units and
    ``services`` their serving extras.  ``untraced_s``/``traced_s`` are the
    per-unit measures of the paired untraced and traced units; their
    median ratio is the trace overhead.  ``phases`` holds the phase
    seconds of the untraced units.
    """
    count = max(1, len(units))
    totals: Dict[str, float] = defaultdict(float)
    for unit in units:
        for key, value in unit.items():
            totals[key] += value
    per_unit = {key: value / count for key, value in totals.items()}
    metrics: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for name, _ in PER_LAYER:
        if name in per_unit:
            metrics[name] = per_unit[name]
    if totals["workloads.draws"]:
        metrics["workloads.ns_per_draw"] = totals["workloads.self_s"] * 1e9 / totals["workloads.draws"]
    if totals["kernels.words"]:
        metrics["kernels.ns_per_word"] = totals["kernels.lane_s"] * 1e9 / totals["kernels.words"]
    if totals["runtime.capacity_s"]:
        metrics["runtime.busy_frac"] = totals["runtime.task_compute_s"] / totals["runtime.capacity_s"]
    if totals["service.cache_lookups"]:
        metrics["service.cache_hit_frac"] = totals["service.cache_hits"] / totals["service.cache_lookups"]
    if totals["service.batch_count"]:
        metrics["service.batch_size_mean"] = totals["service.batch_items"] / totals["service.batch_count"]
    pooled = _service_samples(services)
    for metric, samples, p in (
        ("service.pool_batch_ms_p50", pooled.get("pool_batch_ms"), 50),
        ("service.pool_batch_ms_p95", pooled.get("pool_batch_ms"), 95),
        ("service.wait_ms_p50", pooled.get("wait_ms"), 50),
        ("loadgen.lag_ms_p95", pooled.get("lag_ms"), 95),
    ):
        if samples:
            metrics[metric] = nearest_rank(samples, p)
    for kind in ("cover", "maxcover", "estimate"):
        samples = pooled.get(f"compute_ms.{kind}")
        if samples:
            metrics[f"service.compute_ms.{kind}"] = median(samples)
    reference = totals["trace.wall_s"]
    if reference:
        metrics["trace.unattributed_frac"] = max(0.0, 1.0 - totals["attributed_s"] / reference)
    metrics["trace.units"] = len(units)
    for name, seconds in phases.items():
        if name in PHASES and seconds:
            metrics[f"phase.{name}_ms"] = median(seconds) * 1000.0
    if untraced_s and traced_s:
        metrics["trace.overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0
    return metrics


def layer_table(units: Sequence[Dict[str, float]]) -> List[Tuple[str, float]]:
    """``(layer, self seconds per unit)`` rows, largest first, for the log."""
    totals: Dict[str, float] = defaultdict(float)
    for unit in units:
        for key, seconds in unit.items():
            if key.startswith("layer:"):
                totals[key[len("layer:"):]] += seconds / len(units)
    return sorted(totals.items(), key=lambda row: -row[1])


__all__ = ["ALGORITHMS", "PER_LAYER", "TracedUnit", "layer_table", "summarize", "unit_metrics"]
