"""Chunked kernel: batched primitives over a windowed instance source.

The out-of-core counterpart of the in-memory backends: instead of holding
all m masks (as Python ints or one resident NumPy matrix), every batched
primitive streams the packed buffer through an
:class:`~repro.setcover.source.InstanceSource` in bounded row windows —
so a shared-memory or mmap-backed system never materialises more than
``chunk_rows`` rows in this process's heap, no matter how large m grows.

Per window the arithmetic is the resident backends' own code: the ``numpy``
flavour runs :mod:`repro.kernels.numpy_backend`'s matrix helpers on a
``frombuffer`` view of the window, the ``python`` flavour runs a
:class:`~repro.kernels.pyint.PyIntKernel` over the window's decoded rows.
Reductions across windows are order-preserving (running first-max,
concatenation, bitwise OR), so results are bit-identical to both in-memory
backends — the existing parity suites extend over this kernel unchanged.

Example — identical answers to the resident kernels, via a heap source::

    >>> from repro.setcover.instance import SetSystem
    >>> from repro.setcover.source import HeapSource
    >>> source = HeapSource.from_packed(SetSystem(4, [{0, 1}, {1, 2, 3}]).to_packed())
    >>> ChunkedKernel(source, backend="python").gains(uncovered=0b1111)
    [2, 3]
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.kernels import resolve_backend
from repro.kernels.pyint import PyGainTracker, PyIntKernel, claim_by_descending_keys
from repro.setcover.source import (
    DEFAULT_CHUNK_ROWS,
    InstanceSource,
    LazyMaskRows,
    _decode_rows,
)
from repro.utils.bitset import bitset_size, iter_bits


class ChunkedKernel:
    """Windowed backend: resident-kernel arithmetic, one chunk at a time.

    ``backend`` resolves through the same
    :func:`~repro.kernels.resolve_backend` policy every system uses, so
    ``REPRO_KERNEL`` pins it identically; each window runs the arithmetic of
    the resident backend it resolves to.
    """

    def __init__(
        self,
        source: InstanceSource,
        backend: str = "auto",
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self._source = source
        self._n = source.universe_size
        self._m = source.num_sets
        self._chunk_rows = chunk_rows
        self.backend = resolve_backend(backend, self._n, self._m)
        self._numpy = None
        if self.backend == "numpy":
            from repro.kernels import numpy_backend

            self._numpy = numpy_backend

    def _windows(self) -> Iterator[Tuple[int, object]]:
        """``(start_row, window)`` per chunk of rows, in row order.

        A numpy-flavour window is the chunk's ``(rows, words)`` word matrix;
        a python-flavour window is a :class:`PyIntKernel` over its decoded
        rows.
        """
        stride = self._source.row_bytes
        for start, rows, view in self._source.iter_chunks(self._chunk_rows):
            if self._numpy is not None:
                yield start, self._numpy.word_matrix(view, rows, stride // 8)
            else:
                yield start, PyIntKernel(self._n, _decode_rows(view, stride))

    def _window_popcounts(self, against: int) -> Iterator[Tuple[int, List[int]]]:
        """``(start_row, counts)`` per window: popcounts of ``row & against``."""
        if self._numpy is None:
            for start, window in self._windows():
                yield start, window.gains(against)
            return
        query = self._numpy.pack_row(against, self._n)
        for start, matrix in self._windows():
            yield start, self._numpy._popcount_rows(matrix & query).tolist()

    # -- Kernel protocol --------------------------------------------------
    @property
    def universe_size(self) -> int:
        return self._n

    @property
    def num_sets(self) -> int:
        return self._m

    def gain(self, index: int, uncovered: int) -> int:
        return bitset_size(self._source.mask_at(index) & uncovered)

    def gains(self, uncovered: int) -> List[int]:
        result: List[int] = []
        for _, counts in self._window_popcounts(uncovered):
            result.extend(counts)
        return result

    def best_gain_index(self, uncovered: int) -> "tuple[int, int]":
        # Running first-max across windows: within a window the first
        # maximum wins, and a later window wins only on a strict improvement,
        # so the global winner is the smallest index among the maxima —
        # PyIntKernel.best_gain_index's rule, matching both resident backends.
        best_index = -1
        best_gain = 0
        for start, counts in self._window_popcounts(uncovered):
            gain = max(counts)
            if gain > best_gain or best_index < 0:
                best_gain = gain
                best_index = start + counts.index(gain)
        return best_index, best_gain

    def restrict(self, keep: int) -> List[int]:
        return [mask & keep for mask in LazyMaskRows(self._source, self._chunk_rows)]

    def element_frequencies(self) -> List[int]:
        if self._m == 0 or self._n == 0:
            return [0] * self._n
        if self._numpy is not None:
            totals = sum(
                self._numpy.column_counts(matrix, self._n) for _, matrix in self._windows()
            )
            return totals.tolist()
        frequencies = [0] * self._n
        for _, window in self._windows():
            for element, count in enumerate(window.element_frequencies()):
                frequencies[element] += count
        return frequencies

    def union(self) -> int:
        result = 0
        for _, window in self._windows():
            if self._numpy is not None:
                result |= self._numpy.or_reduce(window)
            else:
                result |= window.union()
        return result

    def set_sizes(self) -> List[int]:
        return self.gains((1 << self._n) - 1)

    def element_lists(self, indices: "Sequence[int] | None" = None) -> List[List[int]]:
        if indices is not None:
            return [list(iter_bits(self._source.mask_at(i))) for i in indices]
        return [
            list(iter_bits(mask)) for mask in LazyMaskRows(self._source, self._chunk_rows)
        ]

    def claim_resolution(self, keys: Sequence[int]) -> List[int]:
        # The shared claim sweep only needs random access to masks; the lazy
        # rows decode one window at a time as the descending-key order walks
        # them.
        return claim_by_descending_keys(
            self._n, LazyMaskRows(self._source, self._chunk_rows), keys
        )

    def gain_tracker(self, uncovered: int) -> PyGainTracker:
        # Rescan on demand: each pick is one windowed best_gain_index sweep,
        # with no resident per-incidence state.
        return PyGainTracker(self, uncovered)

    def prefers_tracker(self) -> bool:
        # The CELF heap materialises one (gain, index) entry per set — an
        # O(m)-memory structure that defeats windowing when m dwarfs the
        # solution size (the out-of-core regime).  The windowed rescan pays
        # one chunked scan per pick instead, at bounded memory; picks and
        # traces are identical (first-max, smallest index) either way.
        return True

    def packed_bytes(self) -> bytes:
        """Materialise the full buffer (escape hatch — not windowed)."""
        return bytes(self._source.view())


def make_source_kernel(
    source: InstanceSource,
    backend: str = "auto",
    chunk_rows: Optional[int] = None,
) -> ChunkedKernel:
    """Build the windowed kernel for a source (mirrors :func:`make_kernel`).

    Wraps in the telemetry metering proxy only while capture is active, so
    the telemetry-off path hands out the raw kernel unchanged.
    """
    kernel = ChunkedKernel(
        source, backend=backend, chunk_rows=chunk_rows or DEFAULT_CHUNK_ROWS
    )
    from repro.telemetry import metrics

    if metrics.active() is not None:
        from repro.telemetry.instrument import instrument_kernel

        return instrument_kernel(kernel)
    return kernel


__all__ = ["ChunkedKernel", "make_source_kernel"]
