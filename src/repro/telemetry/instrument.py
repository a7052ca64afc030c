"""Kernel instrumentation: a delegating proxy that meters every primitive.

:func:`instrument_kernel` wraps a concrete :class:`~repro.kernels.base.Kernel`
in an :class:`InstrumentedKernel` that counts each primitive invocation
(``kernel.calls.<primitive>``) and the machine words it touches
(``kernel.words.<primitive>``, using the packed-matrix cost model: a set row
is ``ceil(n/64)`` words, a whole-matrix primitive touches ``m`` rows).  The
proxy forwards everything else through ``__getattr__``, so backend-specific
surface (``packed_bytes`` on the NumPy kernel, ``hasattr`` probes in
``SetSystem``) keeps working, and it still satisfies the runtime-checkable
:class:`~repro.kernels.base.Kernel` protocol.

``make_kernel`` only installs the proxy while a telemetry session is active,
so the telemetry-off hot path is byte-for-byte the unwrapped kernel.  When the
:mod:`repro.telemetry.profiling` kernel profiler is armed, each metered
primitive also runs under its ``cProfile`` collector.

Example — calls and words accumulate per primitive::

    >>> from repro.kernels.pyint import PyIntKernel
    >>> from repro.telemetry.metrics import MetricsRegistry, _ACTIVE
    >>> registry = MetricsRegistry()
    >>> token = _ACTIVE.set(registry)
    >>> kernel = instrument_kernel(PyIntKernel(4, [0b0011, 0b1110]))
    >>> kernel.gains(uncovered=0b1111)
    [2, 3]
    >>> _ACTIVE.reset(token)
    >>> registry.counters
    {'kernel.calls.gains': 1, 'kernel.words.gains': 2}
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.telemetry import metrics
from repro.telemetry import profiling

#: Metric-name pairs precomputed per primitive: the proxy sits on solver hot
#: loops (thousands of calls per cover), so per-call f-string construction
#: is real overhead the ≤5% budget cannot afford.
_METRIC_NAMES = {
    primitive: (f"kernel.calls.{primitive}", f"kernel.words.{primitive}")
    for primitive in (
        "gain", "gains", "best_gain_index", "restrict", "element_frequencies",
        "union", "set_sizes", "element_lists", "claim_resolution",
        "gain_tracker", "tracker_cover",
    )
}


class InstrumentedKernel:
    """Metering proxy around a concrete kernel backend."""

    __slots__ = ("_kernel", "_row_words", "_matrix_words", "_counters")

    def __init__(self, kernel: Any) -> None:
        self._kernel = kernel
        self._row_words = max(1, -(-kernel.universe_size // 64))
        self._matrix_words = kernel.num_sets * self._row_words
        # The proxy is only installed while a telemetry session is active
        # (see ``make_kernel``), so the session's counter dict can be bound
        # once here instead of re-resolved through the context variable on
        # every primitive call — the hot ``gain`` path then costs two plain
        # dict updates.  A kernel cached past its session counts into that
        # dead session's registry until :func:`rebind_kernel` moves it.
        self.rebind()

    def rebind(self) -> None:
        """Count into the active session's registry (or nowhere) from now on."""
        registry = metrics._ACTIVE.get()
        self._counters = registry.counters if registry is not None else None

    # -- metering core ------------------------------------------------------
    def _meter(self, primitive: str, words: int) -> None:
        counters = self._counters
        if counters is not None:
            calls_name, words_name = _METRIC_NAMES[primitive]
            counters[calls_name] = counters.get(calls_name, 0) + 1
            counters[words_name] = counters.get(words_name, 0) + words

    # -- protocol surface (all metered) -------------------------------------
    @property
    def backend(self) -> str:
        return self._kernel.backend

    @property
    def universe_size(self) -> int:
        return self._kernel.universe_size

    @property
    def num_sets(self) -> int:
        return self._kernel.num_sets

    def gain(self, index: int, uncovered: int) -> int:
        # Hottest primitive (one call per lazy-greedy heap re-evaluation):
        # meter inline against the bound counter dict.
        counters = self._counters
        if counters is not None:
            counters["kernel.calls.gain"] = counters.get("kernel.calls.gain", 0) + 1
            counters["kernel.words.gain"] = (
                counters.get("kernel.words.gain", 0) + self._row_words
            )
        if profiling._PROFILER.get() is None:
            return self._kernel.gain(index, uncovered)
        with profiling.kernel_profile():
            return self._kernel.gain(index, uncovered)

    def gains(self, uncovered: int) -> List[int]:
        self._meter("gains", self._matrix_words)
        if profiling._PROFILER.get() is None:
            return self._kernel.gains(uncovered)
        with profiling.kernel_profile():
            return self._kernel.gains(uncovered)

    def best_gain_index(self, uncovered: int) -> "tuple[int, int]":
        self._meter("best_gain_index", self._matrix_words)
        if profiling._PROFILER.get() is None:
            return self._kernel.best_gain_index(uncovered)
        with profiling.kernel_profile():
            return self._kernel.best_gain_index(uncovered)

    def restrict(self, keep: int) -> List[int]:
        self._meter("restrict", self._matrix_words)
        if profiling._PROFILER.get() is None:
            return self._kernel.restrict(keep)
        with profiling.kernel_profile():
            return self._kernel.restrict(keep)

    def element_frequencies(self) -> List[int]:
        self._meter("element_frequencies", self._matrix_words)
        if profiling._PROFILER.get() is None:
            return self._kernel.element_frequencies()
        with profiling.kernel_profile():
            return self._kernel.element_frequencies()

    def union(self) -> int:
        self._meter("union", self._matrix_words)
        if profiling._PROFILER.get() is None:
            return self._kernel.union()
        with profiling.kernel_profile():
            return self._kernel.union()

    def set_sizes(self) -> List[int]:
        self._meter("set_sizes", self._matrix_words)
        if profiling._PROFILER.get() is None:
            return self._kernel.set_sizes()
        with profiling.kernel_profile():
            return self._kernel.set_sizes()

    def element_lists(self, indices: "Sequence[int] | None" = None) -> List[List[int]]:
        rows = self._kernel.num_sets if indices is None else len(indices)
        self._meter("element_lists", rows * self._row_words)
        if profiling._PROFILER.get() is None:
            return self._kernel.element_lists(indices)
        with profiling.kernel_profile():
            return self._kernel.element_lists(indices)

    def claim_resolution(self, keys: Sequence[int]) -> List[int]:
        self._meter("claim_resolution", self._matrix_words)
        if profiling._PROFILER.get() is None:
            return self._kernel.claim_resolution(keys)
        with profiling.kernel_profile():
            return self._kernel.claim_resolution(keys)

    def gain_tracker(self, uncovered: int) -> "InstrumentedTracker":
        self._meter("gain_tracker", self._matrix_words)
        with profiling.kernel_profile():
            tracker = self._kernel.gain_tracker(uncovered)
        return InstrumentedTracker(tracker, self._row_words, self._counters)

    def prefers_tracker(self) -> bool:
        return self._kernel.prefers_tracker()

    # -- transparent delegation ---------------------------------------------
    def __getattr__(self, name: str) -> Any:
        # Backend-specific surface (packed_bytes, _inverted_index, ...) passes
        # through untouched; hasattr probes see exactly the wrapped kernel.
        return getattr(self._kernel, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstrumentedKernel({self._kernel!r})"


class InstrumentedTracker:
    """Metering proxy around a backend's gain tracker."""

    __slots__ = ("_tracker", "_row_words", "_counters")

    def __init__(self, tracker: Any, row_words: int, counters: Any = None) -> None:
        self._tracker = tracker
        self._row_words = row_words
        self._counters = counters

    def best(self) -> "tuple[int, int]":
        # Per-pick hot path: direct update against the bound counter dict.
        counters = self._counters
        if counters is not None:
            counters["kernel.calls.tracker_best"] = (
                counters.get("kernel.calls.tracker_best", 0) + 1
            )
        return self._tracker.best()

    def cover(self, newly: int) -> None:
        counters = self._counters
        if counters is not None:
            counters["kernel.calls.tracker_cover"] = (
                counters.get("kernel.calls.tracker_cover", 0) + 1
            )
            counters["kernel.words.tracker_cover"] = (
                counters.get("kernel.words.tracker_cover", 0) + self._row_words
            )
        self._tracker.cover(newly)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._tracker, name)


def instrument_kernel(kernel: Any) -> Any:
    """Wrap ``kernel`` in the metering proxy (idempotent)."""
    if isinstance(kernel, InstrumentedKernel):
        return kernel
    return InstrumentedKernel(kernel)


def rebind_kernel(kernel: Any) -> None:
    """Meter a kernel that outlived its session into the active one.

    For a kernel cached across tasks (the per-process instance cache), each
    task's work then counts in that task's own session; a raw kernel (built
    with telemetry off) is left as it is.
    """
    if isinstance(kernel, InstrumentedKernel):
        kernel.rebind()
