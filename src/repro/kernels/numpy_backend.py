"""NumPy packed-bitmap kernel: the incidence structure as a ``uint64`` matrix.

The system's m sets over the universe ``[n]`` are stored as a little-endian
packed bit matrix of shape ``(m, ceil(n/64))``; every batched primitive is a
handful of vectorized word operations:

* ``gains`` — one broadcast AND plus a per-row word popcount
  (``np.bitwise_count`` on NumPy >= 2, a byte lookup table otherwise);
* ``restrict`` — one broadcast AND, rows unpacked back into Python ints;
* ``element_frequencies`` — ``np.unpackbits`` column sums, row-chunked to
  bound the transient ``m × n`` byte matrix;
* ``gain_tracker`` — ski rental between two exact strategies.  A tracker
  starts by rescanning (one masked popcount and argmax per pick).  Once the
  kernel has served :data:`_RESCANS_BEFORE_INDEX` rescans across all its
  trackers it builds an inverted element→sets index (CSC layout, cached on
  the kernel), through which covering an element decrements the gains of
  exactly the sets containing it, so every later pick on that kernel costs
  O(incidences covered) instead of a fresh m·n/64 scan.  Short greedy runs
  never pay for the index; a kernel serving many runs ends up on it.

Masks cross the API boundary as Python integers (the same representation the
rest of the library uses); packing/unpacking is ``int.to_bytes`` /
``int.from_bytes`` against the explicit ``<u8`` dtype, so results are
identical to :class:`~repro.kernels.pyint.PyIntKernel` bit for bit.

Example — identical answers to the pure-Python kernel::

    >>> from repro.kernels.pyint import PyIntKernel
    >>> NumpyKernel(4, [0b0011, 0b1110]).gains(uncovered=0b1111)
    [2, 3]
    >>> PyIntKernel(4, [0b0011, 0b1110]).gains(uncovered=0b1111)
    [2, 3]

This module imports :mod:`numpy` at import time — go through
:func:`repro.kernels.make_kernel`, which only loads it when NumPy is
installed.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.pyint import claim_by_descending_keys
from repro.utils.bitset import bitset_size

#: Explicit little-endian uint64 so packing matches ``int.to_bytes(..., "little")``
#: regardless of host byte order (and is native on every platform we target).
_WORD_DTYPE = np.dtype("<u8")

#: Rescans a kernel's trackers serve before it builds the inverted index:
#: the measured break-even.  The build (one unpack plus one stable sort over
#: the incidences) costs as much as 60–130 masked-popcount rescans at the
#: generators' default density from n×m = 256×512 to 4096×8192 on a 2-vCPU
#: Xeon, about 110 at 512×4096 (table and method in docs/performance.md).
#: Rescanning up to the break-even and then switching costs at most about
#: twice the better of the two strategies, however long the runs are.
_RESCANS_BEFORE_INDEX = 110

#: Row-chunk size for the unpackbits-based passes (frequency count, element
#: lists, inverted index build): bounds the transient bit matrix at
#: ``chunk × n`` bytes.
_FREQ_CHUNK_ROWS = 1024

if hasattr(np, "bitwise_count"):  # NumPy >= 2.0
    def _popcount_rows(words: "np.ndarray") -> "np.ndarray":
        """Per-row popcount of a 2-D uint64 array."""
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
else:  # pragma: no cover - exercised only on NumPy 1.x
    _POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount_rows(words: "np.ndarray") -> "np.ndarray":
        rows = words.shape[0]
        as_bytes = np.ascontiguousarray(words).view(np.uint8).reshape(rows, -1)
        return _POPCOUNT_TABLE[as_bytes].sum(axis=1, dtype=np.int64)


# -- helpers over a (rows, words) matrix -----------------------------------
# Shared by the resident kernel (its whole matrix) and the chunked kernel
# (one window of a source at a time).

def word_matrix(buffer, rows: int, words: int) -> "np.ndarray":
    """A packed row buffer as its ``(rows, words)`` ``<u8`` matrix (no copy)."""
    return np.frombuffer(buffer, dtype=_WORD_DTYPE).reshape(rows, words)


def pack_row(mask: int, universe_size: int) -> "np.ndarray":
    """One mask as a packed ``<u8`` row, clipped to the universe.

    Stored rows are subsets of the universe, so bits beyond it cannot affect
    any result — the pure-Python backend drops them implicitly, clipping
    keeps the backends identical (and ``to_bytes`` from overflowing).
    """
    mask &= (1 << universe_size) - 1
    row_bytes = max(1, (universe_size + 63) // 64) * 8
    return np.frombuffer(mask.to_bytes(row_bytes, "little"), dtype=_WORD_DTYPE)


def unpack_rows(matrix: "np.ndarray", n: int) -> "Iterator[Tuple[int, np.ndarray]]":
    """``(start, bits)`` per row chunk: the chunk's ``(rows, n)`` 0/1 bytes.

    Row-chunked so the transient bit matrix stays bounded at
    ``_FREQ_CHUNK_ROWS × n`` bytes.
    """
    as_bytes = np.ascontiguousarray(matrix).view(np.uint8)
    for start in range(0, matrix.shape[0], _FREQ_CHUNK_ROWS):
        chunk = as_bytes[start : start + _FREQ_CHUNK_ROWS]
        yield start, np.unpackbits(chunk, axis=1, bitorder="little")[:, :n]


def column_counts(matrix: "np.ndarray", n: int) -> "np.ndarray":
    """Per-element (column) count of set bits, as an int64 vector of length n."""
    totals = np.zeros(n, dtype=np.int64)
    for _, bits in unpack_rows(matrix, n):
        totals += bits.sum(axis=0, dtype=np.int64)
    return totals


def or_reduce(matrix: "np.ndarray") -> int:
    """The bitwise OR of every row, as a Python int."""
    merged = np.bitwise_or.reduce(matrix, axis=0)
    return int.from_bytes(np.ascontiguousarray(merged).tobytes(), "little")


class NumpyKernel:
    """Packed-bitmap backend: vectorized word ops over ``(m, ceil(n/64))``."""

    backend = "numpy"

    def __init__(
        self,
        universe_size: int,
        masks: Sequence[int],
        packed: Optional[bytes] = None,
    ) -> None:
        self._n = universe_size
        self._int_masks: List[int] = list(masks)
        self._words = max(1, (universe_size + 63) // 64)
        self._row_bytes = self._words * 8
        if packed is not None and len(packed) == len(self._int_masks) * self._row_bytes:
            # Zero-copy adoption of an already-packed incidence buffer (the
            # transport path): frombuffer aliases the bytes, no re-packing.
            self._matrix = word_matrix(packed, len(self._int_masks), self._words)
        else:
            self._matrix = self._pack(self._int_masks)
        self._universe = (1 << universe_size) - 1
        self._inverted = None  # lazy (col_ptr, col_sets, arange) inverted index
        self._rescans = 0  # tracker rescans served, see _RESCANS_BEFORE_INDEX

    # -- packing helpers ------------------------------------------------
    def _pack(self, masks: Sequence[int]) -> "np.ndarray":
        data = b"".join(mask.to_bytes(self._row_bytes, "little") for mask in masks)
        return word_matrix(data, len(masks), self._words)

    def _unpack_rows(self, rows: "np.ndarray") -> List[int]:
        data = np.ascontiguousarray(rows).tobytes()
        stride = self._row_bytes
        return [
            int.from_bytes(data[row * stride : (row + 1) * stride], "little")
            for row in range(rows.shape[0])
        ]

    def _masked_popcounts(self, against: int) -> "np.ndarray":
        """Per-row popcount of ``matrix & against`` (int64, by set index).

        The one popcount every batched count shares — gains, sizes, the
        greedy argmax, tracker rescans — and the hook a jitted tier overrides.
        """
        return _popcount_rows(self._matrix & pack_row(against, self._n))

    # -- Kernel protocol ------------------------------------------------
    @property
    def universe_size(self) -> int:
        return self._n

    @property
    def num_sets(self) -> int:
        return len(self._int_masks)

    def gain(self, index: int, uncovered: int) -> int:
        # A single-set query is faster as one big-int AND than as a NumPy
        # round trip; the retained int masks are shared with the SetSystem.
        return bitset_size(self._int_masks[index] & uncovered)

    def gains(self, uncovered: int) -> List[int]:
        if not self._int_masks:
            return []
        return self._masked_popcounts(uncovered).tolist()

    def best_gain_index(self, uncovered: int) -> "tuple[int, int]":
        if not self._int_masks:
            return -1, 0
        counts = self._masked_popcounts(uncovered)
        index = int(counts.argmax())  # first occurrence == smallest index
        return index, int(counts[index])

    def restrict(self, keep: int) -> List[int]:
        if not self._int_masks:
            return []
        return self._unpack_rows(self._matrix & pack_row(keep, self._n))

    def element_frequencies(self) -> List[int]:
        if not self._int_masks or self._n == 0:
            return [0] * self._n
        return column_counts(self._matrix, self._n).tolist()

    def union(self) -> int:
        if not self._int_masks:
            return 0
        return or_reduce(self._matrix)

    def set_sizes(self) -> List[int]:
        if not self._int_masks:
            return []
        return self._masked_popcounts(self._universe).tolist()

    def element_lists(self, indices: "Sequence[int] | None" = None) -> List[List[int]]:
        matrix = (
            self._matrix
            if indices is None
            else self._matrix[np.asarray(list(indices), dtype=np.int64)]
        )
        m = matrix.shape[0]
        if m == 0 or self._n == 0:
            return [[] for _ in range(m)]
        lists: List[List[int]] = []
        for _, bits in unpack_rows(matrix, self._n):
            rows, cols = np.nonzero(bits)
            boundaries = np.searchsorted(rows, np.arange(1, bits.shape[0]))
            flat = cols.tolist()
            prev = 0
            for boundary in list(boundaries) + [len(flat)]:
                lists.append(flat[prev:boundary])
                prev = boundary
        return lists

    def claim_resolution(self, keys: Sequence[int]) -> List[int]:
        # The descending-key claim sweep costs m word-ANDs plus one bit-walk
        # over the n claimed elements; a vectorized per-(set, element) argmax
        # would touch m·n scored cells, orders of magnitude more work.  The
        # retained int masks make the shared implementation directly usable.
        return claim_by_descending_keys(self._n, self._int_masks, keys)

    def gain_tracker(self, uncovered: int) -> "NumpyGainTracker":
        return NumpyGainTracker(self, uncovered)

    def packed_bytes(self) -> bytes:
        """The incidence matrix as one contiguous little-endian buffer."""
        return np.ascontiguousarray(self._matrix).tobytes()

    def prefers_tracker(self) -> bool:
        # Once the inverted index exists (earlier runs here rescanned past
        # the break-even), tracker-first skips the doomed lazy warm-up.
        return self._inverted is not None

    # -- inverted index --------------------------------------------------
    def _inverted_index(self):
        """Element→sets index in CSC layout: ``(col_ptr, col_sets)``.

        ``col_sets[col_ptr[e]:col_ptr[e+1]]`` lists the sets containing
        element ``e``.  Built once per kernel (one unpack + one stable sort
        over the nnz incidences) and shared by every tracker, together with
        an nnz-sized arange the trackers slice for their ragged gathers.
        """
        if self._inverted is None:
            m, n = len(self._int_masks), self._n
            if m == 0 or n == 0:
                col_ptr = np.zeros(n + 1, dtype=np.int64)
                col_sets = np.zeros(0, dtype=np.int32)
            else:
                set_chunks, elem_chunks = [], []
                for start, bits in unpack_rows(self._matrix, n):
                    rows, cols = np.nonzero(bits)
                    set_chunks.append(rows + start)
                    elem_chunks.append(cols)
                set_ids = np.concatenate(set_chunks)
                elem_ids = np.concatenate(elem_chunks)
                order = np.argsort(elem_ids, kind="stable")
                col_sets = set_ids[order].astype(np.int32)
                col_ptr = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(np.bincount(elem_ids, minlength=n), out=col_ptr[1:])
            self._inverted = (col_ptr, col_sets, np.arange(col_sets.size, dtype=np.int64))
        return self._inverted


class NumpyGainTracker:
    """Exact gains: rescans first, per-incidence decrements once paid for.

    While its kernel has served fewer than :data:`_RESCANS_BEFORE_INDEX`
    rescans (counted across all its trackers) and has no inverted index,
    :meth:`best` is one masked popcount against the tracker's own uncovered
    mask.  After that the kernel's element→sets index is built (once), the
    gains array is one masked popcount against the current uncovered mask,
    and covering element ``e`` decrements the gain of exactly the sets
    containing it.  Both modes return the ``argmax`` with the smallest
    index (the seed tie-break), so the switch never changes a pick.
    """

    def __init__(self, kernel: NumpyKernel, uncovered: int) -> None:
        self._kernel = kernel
        self._uncovered = uncovered
        self._gains: "Optional[np.ndarray]" = None  # set once on the index

    def best(self) -> "tuple[int, int]":
        kernel = self._kernel
        if kernel.num_sets == 0:
            return -1, 0
        gains = self._gains
        if gains is None:
            if kernel._inverted is None and kernel._rescans < _RESCANS_BEFORE_INDEX:
                kernel._rescans += 1
                gains = kernel._masked_popcounts(self._uncovered)
            else:
                self._col_ptr, self._col_sets, self._arange = kernel._inverted_index()
                gains = self._gains = kernel._masked_popcounts(self._uncovered)
        index = int(gains.argmax())  # first occurrence == smallest index
        return index, int(gains[index])

    def cover(self, newly: int) -> None:
        if self._gains is None:
            self._uncovered &= ~newly
        elif newly:
            row = pack_row(newly, self._kernel.universe_size).view(np.uint8)
            self._decrement(np.nonzero(np.unpackbits(row, bitorder="little"))[0])

    def _decrement(self, elements: "np.ndarray") -> None:
        """Subtract one from the gain of every set containing each element."""
        starts = self._col_ptr[elements]
        lengths = self._col_ptr[elements + 1] - starts
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if ends.size else 0
        if total == 0:
            return
        # Ragged gather of the touched CSC segments: flat position k lands in
        # segment i at offset k - exclusive_cumsum(lengths)[i], i.e. a repeat
        # of each segment's (start - exclusive_cumsum) plus a shared arange.
        offsets = np.repeat(starts - ends + lengths, lengths)
        touched = self._col_sets[offsets + self._arange[:total]]
        self._gains -= np.bincount(touched, minlength=self._gains.size)
