"""Compiled kernel: numba-jitted hot primitives over the packed matrix.

The third tier of the backend ladder, registered only when numba imports.
The packed ``uint64`` incidence matrix (the same layout
:class:`~repro.kernels.numpy_backend.NumpyKernel` uses, so zero-copy
transport buffers are adopted unchanged) is driven by ``@njit`` machine-code
loops:

* ``gains`` / ``set_sizes`` / ``best_gain_index`` — a ``prange``-parallel
  SWAR word-popcount over rows, plugged into the NumPy kernel's
  ``_masked_popcounts`` hook;
* ``claim_resolution`` — a parallel descending-key claim sweep: row chunks
  resolve per-element winners independently (each chunk keeps the highest
  positive key, smallest set index, seen in its rows) and a sequential
  ascending-chunk reduction merges them, so the result is bit-identical to
  the shared big-int sweep for *any* chunk size and thread count;
* ``element_frequencies`` — a column-parallel bit walk (threads own disjoint
  word columns, so no atomics are needed);
* ``gain_tracker`` — the inverted-index incremental maintenance of the NumPy
  tracker with the per-incidence decrement loop jitted.

numba's own thread pool runs the ``prange`` loops (``NUMBA_NUM_THREADS``,
``numba.set_num_threads``); no sweep's output depends on the thread count.
The conformance suite (``tests/kernel_conformance.py``) pins the kernel
bit-identical to :class:`~repro.kernels.pyint.PyIntKernel`.

Without numba this module still imports (the ``@njit`` decorator becomes an
import-only stand-in), but :class:`CompiledKernel` raises
:class:`ImportError`; :func:`repro.kernels.resolve_backend` degrades a
``compiled`` request to the NumPy tier instead.  This module imports
:mod:`numpy` at import time — go through :func:`repro.kernels.make_kernel`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.kernels.numpy_backend import NumpyGainTracker, NumpyKernel, pack_row
from repro.kernels.pyint import claim_by_descending_keys

try:  # numba is an optional [compiled] extra.
    from numba import njit, prange

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - the CI compiled job installs numba
    HAS_NUMBA = False
    prange = range

    def njit(**options):
        """Import-only stand-in: leave the function as plain Python."""
        return lambda func: func


#: Rows per chunk of the parallel claim sweep.  Chunks are reduced in
#: ascending order, so this is a pure performance knob — results are
#: identical for any value.
DEFAULT_CHUNK_ROWS = 512

#: Keys at or above this magnitude route claim resolution to the exact
#: big-int sweep: the jitted sweep scores keys in int64 lanes and must never
#: be allowed to overflow.
_INT64_KEY_LIMIT = 1 << 62


# -- jitted primitives ------------------------------------------------------
# Plain nested loops over the packed matrix: exactly the shape numba's
# type-inferred machine code wants.  Without numba they are never called
# (CompiledKernel refuses to build), so the plain-Python definitions only
# need to exist, not to be fast.

@njit(cache=True)
def _jit_word_popcount(word):  # pragma: no cover - numba-only path
    """SWAR popcount of one uint64 word."""
    x = word
    x = x - ((x >> 1) & 0x5555555555555555)
    x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0F
    return (x * 0x0101010101010101) >> 56


@njit(parallel=True, cache=True)
def _jit_masked_popcounts(matrix, query, out):  # pragma: no cover - numba-only
    """Per-row popcount of ``matrix & query`` (prange over rows)."""
    for row in prange(matrix.shape[0]):
        total = 0
        for word in range(matrix.shape[1]):
            total += _jit_word_popcount(matrix[row, word] & query[word])
        out[row] = total


@njit(parallel=True, cache=True)
def _jit_claim_sweep(
    matrix, keys, n, chunk_rows, best_keys, best_sets
):  # pragma: no cover - numba-only
    """Per-chunk claim winners: highest positive key, smallest set index.

    Chunk ``c`` owns rows ``[c·chunk_rows, (c+1)·chunk_rows)`` and writes
    only ``best_keys[c]`` / ``best_sets[c]`` — no cross-thread state.  Rows
    are scanned in ascending order with a strictly-greater update, so within
    a chunk ties already break to the smallest set index.
    """
    num_chunks = best_keys.shape[0]
    m = matrix.shape[0]
    for c in prange(num_chunks):
        lo = c * chunk_rows
        hi = min(lo + chunk_rows, m)
        for row in range(lo, hi):
            key = keys[row]
            if key <= 0:
                continue
            for word in range(matrix.shape[1]):
                bits = matrix[row, word]
                base = word * 64
                while bits != 0:
                    low = bits & (0 - bits)
                    element = base + _jit_word_popcount(low - 1)
                    if element < n and key > best_keys[c, element]:
                        best_keys[c, element] = key
                        best_sets[c, element] = row
                    bits ^= low


@njit(parallel=True, cache=True)
def _jit_column_frequencies(matrix, n, out):  # pragma: no cover - numba-only
    """Per-element frequencies, parallel over word columns (disjoint writes)."""
    for word in prange(matrix.shape[1]):
        base = word * 64
        for row in range(matrix.shape[0]):
            bits = matrix[row, word]
            while bits != 0:
                low = bits & (0 - bits)
                element = base + _jit_word_popcount(low - 1)
                if element < n:
                    out[element] += 1
                bits ^= low


@njit(cache=True)
def _jit_tracker_cover(col_ptr, col_sets, gains, elements):  # pragma: no cover
    """Decrement the gains of every set containing a newly covered element."""
    for index in range(elements.shape[0]):
        element = elements[index]
        for position in range(col_ptr[element], col_ptr[element + 1]):
            gains[col_sets[position]] -= 1


class CompiledKernel(NumpyKernel):
    """Jit-compiled backend over the packed matrix.

    ``chunk_rows`` sizes the claim sweep's row chunks — a pure wall-clock
    knob, outputs are identical for every setting.
    """

    backend = "compiled"

    def __init__(
        self,
        universe_size: int,
        masks: Sequence[int],
        packed: Optional[bytes] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        if not HAS_NUMBA:
            raise ImportError(
                "the compiled kernel needs numba; install the [compiled] extra"
            )
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        super().__init__(universe_size, masks, packed=packed)
        self._chunk_rows = chunk_rows

    def _masked_popcounts(self, against: int) -> "np.ndarray":
        out = np.zeros(self._matrix.shape[0], dtype=np.int64)
        _jit_masked_popcounts(self._matrix, pack_row(against, self._n), out)
        return out

    # -- parallel claim sweep ---------------------------------------------
    def claim_resolution(self, keys: Sequence[int]) -> List[int]:
        n, m = self._n, len(self._int_masks)
        if n == 0:
            return []
        if m == 0:
            return [-1] * n
        key_list = [int(key) for key in keys]
        if max(key_list) >= _INT64_KEY_LIMIT:
            # Keys this large would overflow the int64 scoring lanes; the
            # exact big-int sweep handles them at any magnitude.
            return claim_by_descending_keys(n, self._int_masks, key_list)
        # Negative keys never claim (same as key 0): clamp them to 0, which
        # the sweep skips.
        key_vector = np.asarray(key_list, dtype=np.int64)
        np.maximum(key_vector, 0, out=key_vector)
        num_chunks = -(-m // self._chunk_rows)
        best_keys = np.zeros((num_chunks, n), dtype=np.int64)
        best_sets = np.full((num_chunks, n), -1, dtype=np.int64)
        _jit_claim_sweep(
            self._matrix, key_vector, n, self._chunk_rows, best_keys, best_sets
        )
        # Sequential reduction in ascending chunk order with a strictly-
        # greater update: earlier chunks (smaller set indices) win ties, so
        # the merged winner is the smallest index among the maximum keys —
        # the claim_resolution contract — at every thread count.
        merged_keys = np.zeros(n, dtype=np.int64)
        merged_sets = np.full(n, -1, dtype=np.int64)
        for chunk_keys, chunk_sets in zip(best_keys, best_sets):
            take = chunk_keys > merged_keys
            merged_keys[take] = chunk_keys[take]
            merged_sets[take] = chunk_sets[take]
        return merged_sets.tolist()

    # -- frequencies ------------------------------------------------------
    def element_frequencies(self) -> List[int]:
        if not self._int_masks or self._n == 0:
            return [0] * self._n
        out = np.zeros(self._n, dtype=np.int64)
        _jit_column_frequencies(self._matrix, self._n, out)
        return out.tolist()

    # -- incremental gain maintenance --------------------------------------
    def gain_tracker(self, uncovered: int) -> "CompiledGainTracker":
        return CompiledGainTracker(self, uncovered)


class CompiledGainTracker(NumpyGainTracker):
    """Inverted-index tracker with the decrement loop jitted.

    Same exact-gains contract as :class:`NumpyGainTracker` (it *is* one);
    only the per-incidence decrement walk changes implementation.
    """

    def _decrement(self, elements: "np.ndarray") -> None:
        _jit_tracker_cover(
            self._col_ptr, self._col_sets, self._gains, elements.astype(np.int64)
        )


__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "HAS_NUMBA",
    "CompiledGainTracker",
    "CompiledKernel",
]
