"""Traced runs: spans at layer boundaries, recorded from outside the program.

The program is never edited.  :class:`LayerTracer` wraps the public entry
points of each layer (module functions and class methods) for the duration
of one traced unit of work, replacing every reference a caller resolves: the
defining module's attribute, every ``repro.*`` module global (and dict entry)
that holds the same function object, and the class attribute for methods.
Worker processes forked while the wrappers are installed inherit them.

A wrapped call is one of three kinds:

* a **boundary** call opens a span ``bench.<key>`` with ``layer``/``key``
  attrs through the program's own span recorder, so spans opened inside
  worker processes ride back in the program's telemetry snapshots exactly
  like the program's own spans do;
* a **fine** call (kernel methods, row decoding: thousands per second) does
  not open a span; its self time is carved out of the nearest enclosing
  boundary frame and attached to that span as ``carved`` attrs;
* a **re-entry** into the layer already on top of the stack is not a new
  boundary; only its count and inclusive time are added to that frame.

:func:`attribute` turns the spans of one unit into per-layer wall-clock
self time: within each lane (process, thread) the innermost open span owns
each instant, and when several lanes are busy at once each gets an equal
share of that instant, so the layer self times sum to at most the wall time.
"""

from __future__ import annotations

import functools
import heapq
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

SPAN_PREFIX = "bench."

#: Spans the executor manufactures after the fact (their start stamps are
#: the absorb instant, not when the work ran): used for durations only.
MANUFACTURED_SPANS = ("task.lifecycle", "task.queue_wait", "task.merge")

#: The program's own span names, mapped to the layer that does the work.
#: Names not listed (``task.run``, ``service.request``) hold no layer: time
#: only they cover is glue, reported as unattributed.
PROGRAM_SPAN_LAYERS = (
    ("engine.", "streaming"),
    ("alg1.", "streaming"),
    ("stream.", "streaming"),
    ("sampler.", "lowerbound"),
)

#: Kernel and gain-tracker classes by the flavour their time is filed under.
FLAVOUR_OF_CLASS = {
    "PyIntKernel": "python",
    "PyGainTracker": "python",
    "NumpyKernel": "numpy",
    "NumpyGainTracker": "numpy",
    "ChunkedKernel": "chunked",
    "ChunkedGainTracker": "chunked",
    "CompiledKernel": "compiled",
    "CompiledGainTracker": "compiled",
}


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:qualname`` in ``layer``.

    ``key`` names the span/count (default ``<layer>.<function>``);
    ``fine`` marks high-rate calls that are carved rather than spanned.
    """

    module: str
    qualname: str
    layer: str
    key: Optional[str] = None
    fine: bool = False


def _functions(module: str, layer: str, names: Sequence[str] = ()) -> List[Target]:
    """Targets for the public module-level functions of ``module``."""
    import importlib
    import inspect

    mod = importlib.import_module(module)
    picked = names or [
        name
        for name, value in vars(mod).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module
    ]
    return [Target(module, name, layer) for name in sorted(picked)]


def _methods(module: str, cls_name: str, layer: str, fine: bool = False) -> List[Target]:
    """Targets for the public methods a class defines itself."""
    import importlib
    import inspect

    cls = getattr(importlib.import_module(module), cls_name)
    return [
        Target(module, f"{cls_name}.{name}", layer, fine=fine)
        for name, value in sorted(vars(cls).items())
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def default_targets() -> List[Target]:
    """The layer entry points the traced run wraps."""
    targets: List[Target] = []
    for module in (
        "repro.workloads.random_instances",
        "repro.workloads.adversarial",
        "repro.workloads.coverage",
        "repro.workloads.outofcore",
        "repro.workloads.io",
    ):
        targets += _functions(module, "workloads")
    for module in (
        "repro.lowerbound.dsc",
        "repro.lowerbound.dmc",
        "repro.lowerbound.covering_lemma",
        "repro.lowerbound.mapping_extension",
        "repro.lowerbound.properties",
        "repro.lowerbound.reduction",
    ):
        targets += _functions(module, "lowerbound")
    targets += _functions(
        "repro.setcover.exact",
        "exact",
        ("brute_force_set_cover", "exact_cover_of_elements", "exact_cover_value", "exact_set_cover"),
    )
    targets += _functions("repro.setcover.maxcover", "exact", ("exact_max_coverage",))
    targets += _functions("repro.setcover.greedy", "greedy", ("greedy_cover_trace", "greedy_set_cover"))
    targets += _functions("repro.setcover.maxcover", "greedy", ("greedy_max_coverage",))
    targets += [
        Target("repro.setcover.source", "MmapSource.open", "source", key="source.open"),
        Target("repro.setcover.source", "open_source", "source", key="source.open"),
        Target("repro.setcover.source", "_decode_rows", "source", key="source.decode", fine=True),
    ]
    for module, classes in (
        ("repro.kernels.pyint", ("PyIntKernel", "PyGainTracker")),
        ("repro.kernels.numpy_backend", ("NumpyKernel", "NumpyGainTracker")),
        ("repro.kernels.chunked", ("ChunkedKernel", "ChunkedGainTracker")),
        ("repro.kernels.compiled", ("CompiledKernel", "CompiledGainTracker")),
    ):
        for cls_name in classes:
            try:
                targets += _methods(module, cls_name, "kernels", fine=True)
            except (ImportError, AttributeError):
                continue
    targets += [
        Target("repro.streaming.engine", "run_streaming_algorithm", "streaming"),
        Target("repro.streaming.engine", "MultiPassEngine.run", "streaming"),
    ]
    for module in (
        "repro.communication.model",
        "repro.communication.cost",
        "repro.communication.protocols.setcover_protocol",
        "repro.communication.protocols.maxcover_protocol",
        "repro.communication.protocols.disjointness",
        "repro.communication.protocols.ghd",
    ):
        targets += _functions(module, "communication")
    for module in (
        "repro.infotheory.entropy",
        "repro.infotheory.estimators",
        "repro.infotheory.facts",
        "repro.infotheory.information_cost",
        "repro.infotheory.odometer",
    ):
        targets += _functions(module, "infotheory")
    targets += [
        Target("repro.runtime.store", "task_fingerprint", "runtime", key="runtime.fingerprint"),
        Target("repro.runtime.store", "ResultStore.put", "runtime", key="runtime.store_put"),
        Target("repro.runtime.store", "ResultStore.fetch", "runtime", key="runtime.store_fetch"),
        Target("repro.runtime.store", "ResultStore.get", "runtime", key="runtime.store_fetch"),
        Target("repro.service.cache", "ResponseCache.get", "service", key="service.cache"),
        Target("repro.service.cache", "ResponseCache.put", "service", key="service.cache"),
        Target("repro.service.requests", "canonical_params", "service", key="service.admit"),
        Target("repro.service.requests", "request_fingerprint", "service", key="service.admit"),
    ]
    return targets


class _Frame:
    """One open wrapped call on a lane's stack."""

    __slots__ = ("layer", "fine", "child", "carved", "counts", "incl")

    def __init__(self, layer: str, fine: bool) -> None:
        self.layer = layer
        self.fine = fine
        self.child = 0.0
        self.carved: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.incl: Dict[str, float] = {}


def _bump(table: Dict[str, Any], key: str, value: Any) -> None:
    table[key] = table.get(key, 0) + value


class LayerTracer:
    """Installs and removes the layer wrappers; owns per-lane stacks.

    ``fallback`` is the program tracer that spans from threads without a
    telemetry context (the service's dispatch threads) are recorded into;
    it is only used in the process that installed the wrappers.
    """

    def __init__(self, targets: Optional[Iterable[Target]] = None) -> None:
        self.targets = list(targets if targets is not None else default_targets())
        self.fallback = None
        self.pid = os.getpid()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self.extra_wrappers: List[Tuple[str, str, Callable[[Callable], Callable]]] = []

    # -- stacks -------------------------------------------------------------
    def stack(self) -> List[_Frame]:
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            local.pid = os.getpid()
            local.stack = []
        return local.stack

    # -- wrapping -----------------------------------------------------------
    def wrap(self, fn: Callable, target: Target) -> Callable:
        from repro.telemetry import active_tracer, span
        from repro.telemetry.metrics import active as active_registry

        tracer_self = self
        layer = target.layer
        base_key = target.key or f"{layer}.{target.qualname.rsplit('.', 1)[-1]}"
        is_method = "." in target.qualname and target.layer == "kernels"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer_self.stack()
            key = base_key
            if is_method:
                flavour = FLAVOUR_OF_CLASS.get(type(args[0]).__name__, "other")
                key = f"kernels.{flavour}"
            top = stack[-1] if stack else None
            if top is not None and top.layer == layer:
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    _bump(top.incl, key, time.perf_counter() - start)
                    _bump(top.counts, key, 1)
            coarse = next((f for f in reversed(stack) if not f.fine), None)
            if target.fine and coarse is not None:
                frame = _Frame(layer, True)
                stack.append(frame)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = time.perf_counter() - start
                    stack.pop()
                    _bump(coarse.carved, key, duration - frame.child)
                    _bump(coarse.counts, key, 1)
                    for name, value in frame.counts.items():
                        _bump(coarse.counts, name, value)
                    if top is not None:
                        top.child += duration
                if key == "source.decode":
                    _bump(coarse.counts, "source.rows", len(result))
                return result
            tracer = active_tracer()
            if tracer is None and (
                tracer_self.fallback is None or os.getpid() != tracer_self.pid
            ):
                return fn(*args, **kwargs)
            frame = _Frame(layer, False)
            # A fine call with no boundary frame around it is spanned under
            # the name its carved time would have had (``kernels.numpy``).
            attrs: Dict[str, Any] = {"layer": key if target.fine else layer, "key": key}
            algorithm = _algorithm_name(target, args)
            if algorithm is not None:
                attrs["algorithm"] = algorithm
            registry = active_registry()
            draws_before = registry.counters.get("rng.draws", 0) if registry else 0
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                if tracer is not None:
                    with span(SPAN_PREFIX + key, **attrs) as handle:
                        try:
                            result = fn(*args, **kwargs)
                        finally:
                            handle.set(**_frame_attrs(frame, registry, draws_before, key, result))
                else:
                    wall = time.time()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        attrs.update(_frame_attrs(frame, registry, draws_before, key, result))
                        attrs["tid"] = threading.get_ident()
                        fallback = tracer_self.fallback
                        fallback.record(
                            SPAN_PREFIX + key,
                            start=start,
                            duration=time.perf_counter() - start,
                            span_id=fallback.new_id(),
                            parent_id=None,
                            attrs=attrs,
                            wall=wall,
                        )
                return result
            finally:
                stack.pop()
                if top is not None:
                    top.child += time.perf_counter() - start

        return wrapper

    def install(self) -> None:
        """Patch every target (idempotent per install/uninstall pair)."""
        if self._patches:
            return
        replacements: Dict[int, Callable] = {}
        makers = [(t.module, t.qualname, functools.partial(self.wrap, target=t)) for t in self.targets]
        for module_name, qualname, make in makers + self.extra_wrappers:
            module, owner, name = _resolve(module_name, qualname)
            raw = vars(owner).get(name)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(make(raw.__func__))
            else:
                wrapped = make(raw)
                if owner is module:
                    replacements[id(raw)] = wrapped
            self._patch(owner, name, raw, wrapped)
        # Chase references callers resolve: module globals and dict entries.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            namespace = vars(module)
            for name, value in list(namespace.items()):
                new = replacements.get(id(value))
                if new is not None and namespace[name] is not new:
                    self._patch(module, name, value, new)
                elif isinstance(value, dict):
                    for entry, item in list(value.items()):
                        new = replacements.get(id(item))
                        if new is not None:
                            self._patch(value, entry, item, new, mapping=True)

    def _patch(self, owner: Any, name: Any, old: Any, new: Any, mapping: bool = False) -> None:
        if mapping:
            owner[name] = new
        else:
            setattr(owner, name, new)
        self._patches.append((owner, name, old, mapping))

    def uninstall(self) -> None:
        """Restore every patched reference, newest first."""
        while self._patches:
            owner, name, old, mapping = self._patches.pop()
            if mapping:
                owner[name] = old
            else:
                setattr(owner, name, old)


#: Outcome key the traced service worker sends its capture back under; the
#: parent-side ``WorkerPool.run_batch`` wrapper pops it before the server
#: sees the outcome.
SIDE_KEY = "__e2ebench__"


@dataclass
class ServiceSink:
    """What the service wrappers collect during one traced session."""

    batches: List[Tuple[float, List[str]]] = field(default_factory=list)
    compute: List[Tuple[str, str, float]] = field(default_factory=list)
    snapshots: List[Dict[str, Any]] = field(default_factory=list)

    def clear(self) -> None:
        self.batches.clear()
        self.compute.clear()
        self.snapshots.clear()


def service_wrappers(sink: ServiceSink) -> List[Tuple[str, str, Callable[[Callable], Callable]]]:
    """Extra wrappers for the serving path, installed next to the layer ones.

    The service's pool workers run no telemetry session of their own, so
    the worker-side batch entry point opens one per batch, times each
    request's compute, and ships both back inside the first outcome.  The
    parent-side ``run_batch`` wrapper strips that, and records each pool
    batch's duration and request ids.
    """

    def make_worker_batch(original: Callable) -> Callable:
        @functools.wraps(original)
        def execute_request_batch(items: Sequence[Any]) -> List[Dict[str, Any]]:
            from repro.telemetry import TelemetrySession

            outcomes: List[Dict[str, Any]] = []
            compute: List[Tuple[str, str, float]] = []
            with TelemetrySession(label="service-worker") as session:
                for item in items:
                    start = time.perf_counter()
                    outcomes.extend(original([item]))
                    compute.append((item[0], item[2], time.perf_counter() - start))
            if outcomes:
                outcomes[0][SIDE_KEY] = {"snapshot": session.snapshot(), "compute": compute}
            return outcomes

        return execute_request_batch

    def make_run_batch(original: Callable) -> Callable:
        @functools.wraps(original)
        def run_batch(pool: Any, items: Sequence[Any]) -> List[Dict[str, Any]]:
            start = time.perf_counter()
            outcomes = original(pool, items)
            duration = time.perf_counter() - start
            for outcome in outcomes:
                side = outcome.pop(SIDE_KEY, None)
                if side is not None:
                    sink.snapshots.append(side["snapshot"])
                    sink.compute.extend(side["compute"])
            sink.batches.append((duration, [item[0] for item in items]))
            return outcomes

        return run_batch

    return [
        ("repro.service.pool", "execute_request_batch", make_worker_batch),
        ("repro.service.pool", "WorkerPool.run_batch", make_run_batch),
    ]


def _resolve(module_name: str, qualname: str) -> Tuple[Any, Any, str]:
    """``(module, owner, attribute)`` for a ``module:qualname`` target."""
    import importlib

    module = importlib.import_module(module_name)
    owner: Any = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _algorithm_name(target: Target, args: Sequence[Any]) -> Optional[str]:
    """The streaming algorithm a ``run_streaming_algorithm``/engine call runs."""
    if target.layer != "streaming":
        return None
    index = 1 if target.qualname == "MultiPassEngine.run" else 0
    if len(args) > index:
        return str(getattr(args[index], "name", type(args[index]).__name__))
    return None


def _frame_attrs(
    frame: _Frame, registry: Any, draws_before: int, key: str, result: Any
) -> Dict[str, Any]:
    attrs: Dict[str, Any] = {}
    if frame.carved:
        attrs["carved"] = dict(frame.carved)
    if frame.counts:
        attrs["counts"] = dict(frame.counts)
    if frame.incl:
        attrs["incl"] = dict(frame.incl)
    if registry is not None and frame.layer == "workloads":
        attrs["draws"] = registry.counters.get("rng.draws", 0) - draws_before
    if key == "source.decode" and result is not None:
        attrs["rows"] = len(result)
    return attrs


# -- attribution -------------------------------------------------------------

def span_layer(record: Dict[str, Any]) -> Optional[str]:
    """The layer a span's self time belongs to (``None``: glue)."""
    name = record.get("name", "")
    if name.startswith(SPAN_PREFIX):
        return (record.get("attrs") or {}).get("layer")
    for prefix, layer in PROGRAM_SPAN_LAYERS:
        if name.startswith(prefix):
            return layer
    return None


@dataclass
class Attribution:
    """Per-layer wall-clock self time of one window of spans."""

    wall_s: float
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def attributed_s(self) -> float:
        return sum(self.layers.values())

    @property
    def unattributed_frac(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return max(0.0, 1.0 - self.attributed_s / self.wall_s)


def _lane(record: Dict[str, Any]) -> Tuple[Any, Any]:
    return record.get("pid"), (record.get("attrs") or {}).get("tid")


def _lane_segments(items: List[Tuple[float, float, int]]) -> List[Tuple[float, float, int]]:
    """Split one lane's spans into (start, end, span) pieces of self time.

    Each instant belongs to the innermost open span: the latest-started one
    (ties: the one ending first), which for properly nested spans is the
    deepest.  Pieces where no span is open are omitted.
    """
    bounds = sorted({t for a, b, _ in items for t in (a, b)})
    by_start = sorted(items)
    heap: List[Tuple[float, float, int]] = []
    pieces: List[Tuple[float, float, int]] = []
    cursor = 0
    for left, right in zip(bounds, bounds[1:]):
        while cursor < len(by_start) and by_start[cursor][0] <= left:
            a, b, index = by_start[cursor]
            heapq.heappush(heap, (-a, b, index))
            cursor += 1
        # The heap top is the latest-started span; drop it once it ended.
        while heap and heap[0][1] <= left:
            heapq.heappop(heap)
        if not heap:
            continue
        index = heap[0][2]
        if pieces and pieces[-1][2] == index and pieces[-1][1] == left:
            pieces[-1] = (pieces[-1][0], right, index)
        else:
            pieces.append((left, right, index))
    return pieces


def attribute(
    spans: Sequence[Dict[str, Any]],
    start: float,
    end: float,
    layer_of: Callable[[Dict[str, Any]], Optional[str]] = span_layer,
    wall_s: Optional[float] = None,
) -> Attribution:
    """Wall-clock self time per layer over ``[start, end]``.

    A span's self time is its interval minus the parts its children (the
    spans opened inside it on the same lane) cover.  Where several lanes
    run layer work at one instant, each gets an equal share of it, so the
    layer totals never exceed the window.  ``carved`` attrs (fine calls
    measured inside a span) move their time, at the concurrency share of
    the carrying span's lane and layer, from that layer to theirs.
    ``wall_s`` overrides the reference the unattributed share is taken of.
    """
    lanes: Dict[Tuple[Any, Any], List[Tuple[float, float, int]]] = defaultdict(list)
    for index, record in enumerate(spans):
        if record.get("name") in MANUFACTURED_SPANS:
            continue
        a = max(record["t_start"], start)
        b = min(record["t_start"] + record["dur"], end)
        if b > a:
            lanes[_lane(record)].append((a, b, index))

    events: List[Tuple[float, int, int]] = []
    pieces: List[Tuple[float, float, int, Tuple[Any, Any], Optional[str]]] = []
    for lane, items in lanes.items():
        for a, b, index in _lane_segments(items):
            layer = layer_of(spans[index])
            if layer is None:
                continue
            pieces.append((a, b, index, lane, layer))
    for piece_id, (a, b, _, _, _) in enumerate(pieces):
        events.append((a, 1, piece_id))
        events.append((b, 0, piece_id))
    events.sort()
    share = [0.0] * len(pieces)
    active: Dict[int, None] = {}
    previous = None
    for moment, kind, piece_id in events:
        if previous is not None and active and moment > previous:
            portion = (moment - previous) / len(active)
            for live in active:
                share[live] += portion
        previous = moment
        if kind == 1:
            active[piece_id] = None
        else:
            active.pop(piece_id, None)

    layers: Dict[str, float] = defaultdict(float)
    lane_wall: Dict[Tuple[Any, str], float] = defaultdict(float)
    lane_busy: Dict[Tuple[Any, str], float] = defaultdict(float)
    for (a, b, index, lane, layer), wall in zip(pieces, share):
        layers[layer] += wall
        lane_wall[lane, layer] += wall
        lane_busy[lane, layer] += b - a
    for record in spans:
        carved = (record.get("attrs") or {}).get("carved")
        if not carved:
            continue
        layer = layer_of(record)
        lane = _lane(record)
        busy = lane_busy.get((lane, layer), 0.0)
        ratio = lane_wall[lane, layer] / busy if busy > 0 else 0.0
        for key, seconds in carved.items():
            moved = seconds * ratio
            layers[layer] -= moved
            layers[key] += moved
    window = end - start if wall_s is None else wall_s
    return Attribution(
        wall_s=window, layers={name: max(0.0, value) for name, value in layers.items()}
    )


__all__ = [
    "Attribution",
    "FLAVOUR_OF_CLASS",
    "LayerTracer",
    "MANUFACTURED_SPANS",
    "Target",
    "attribute",
    "default_targets",
    "span_layer",
]
