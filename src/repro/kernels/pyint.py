"""Pure-Python int-bitset kernel — the seed implementation behind the seam.

This is the always-available fallback backend: sets are Python integers and
every primitive is a loop over ``m`` big-int operations.  Compared to the
pre-kernel code paths it still avoids per-element set materialisation
(:func:`~repro.utils.bitset.iter_bits` drives the frequency count directly)
and skips fully-covered sets where the caller's contract allows it.

Example — gains against an uncovered mask, and per-element frequencies::

    >>> kernel = PyIntKernel(4, [0b0011, 0b1110])
    >>> kernel.gains(uncovered=0b1100)
    [0, 2]
    >>> kernel.element_frequencies()
    [1, 2, 1, 1]
"""

from __future__ import annotations

from typing import List, Sequence

from repro.kernels.base import Kernel
from repro.utils.bitset import bitset_size, iter_bits


def _iter_bits_list(mask: int) -> List[int]:
    """Ascending element indices of ``mask`` as a list (one iter_bits walk)."""
    return list(iter_bits(mask))


def claim_by_descending_keys(
    universe_size: int, masks: Sequence[int], keys: Sequence[int]
) -> List[int]:
    """Per-element argmax over containing sets, scored by ``keys``.

    Shared by both kernel backends: visiting sets in descending ``(key,
    -index)`` order, each set claims whatever is still unclaimed of its mask
    — so every element ends up with the highest-key containing set, ties to
    the smallest index, exactly the :meth:`Kernel.claim_resolution`
    contract.  Total cost is m word-ops plus one bit-walk over the n claimed
    elements, independent of how the claims overlap — far cheaper than any
    per-(set, element) matrix formulation.
    """
    winners = [-1] * universe_size
    unclaimed = (1 << universe_size) - 1
    order = sorted(
        (index for index in range(len(masks)) if keys[index] > 0),
        key=lambda index: (-keys[index], index),
    )
    for index in order:
        if not unclaimed:
            break
        claim = masks[index] & unclaimed
        if claim:
            for element in iter_bits(claim):
                winners[element] = index
            unclaimed ^= claim
    return winners


class PyIntKernel:
    """Int-bitset backend: exact, dependency-free, O(m·n/64) word ops."""

    backend = "python"

    def __init__(self, universe_size: int, masks: Sequence[int]) -> None:
        self._n = universe_size
        self._masks: List[int] = list(masks)

    @property
    def universe_size(self) -> int:
        return self._n

    @property
    def num_sets(self) -> int:
        return len(self._masks)

    def gain(self, index: int, uncovered: int) -> int:
        return bitset_size(self._masks[index] & uncovered)

    def gains(self, uncovered: int) -> List[int]:
        return [bitset_size(mask & uncovered) for mask in self._masks]

    def best_gain_index(self, uncovered: int) -> "tuple[int, int]":
        best_index = -1
        best_gain = 0
        for index, mask in enumerate(self._masks):
            gain = bitset_size(mask & uncovered)
            if gain > best_gain or best_index < 0:
                best_gain = gain
                best_index = index
        return best_index, best_gain

    def gain_tracker(self, uncovered: int) -> "PyGainTracker":
        return PyGainTracker(self, uncovered)

    def prefers_tracker(self) -> bool:
        # The pure-Python tracker is a rescan per pick — never better than
        # trying lazy evaluation first.
        return False

    def restrict(self, keep: int) -> List[int]:
        return [mask & keep for mask in self._masks]

    def element_frequencies(self) -> List[int]:
        frequencies = [0] * self._n
        for mask in self._masks:
            # iter_bits is O(popcount) big-int ops; no intermediate set object.
            for element in iter_bits(mask):
                frequencies[element] += 1
        return frequencies

    def union(self) -> int:
        result = 0
        for mask in self._masks:
            result |= mask
        return result

    def set_sizes(self) -> List[int]:
        return [bitset_size(mask) for mask in self._masks]

    def element_lists(self, indices: "Sequence[int] | None" = None) -> List[List[int]]:
        rows = self._masks if indices is None else [self._masks[i] for i in indices]
        return [_iter_bits_list(mask) for mask in rows]

    def claim_resolution(self, keys: Sequence[int]) -> List[int]:
        return claim_by_descending_keys(self._n, self._masks, keys)


class PyGainTracker:
    """Rescan-on-demand tracker: one ``best_gain_index`` of its kernel per
    pick — exactly the cost profile of the seed implementation's loop, and
    how the windowed kernel tracks gains without resident state."""

    def __init__(self, kernel: Kernel, uncovered: int) -> None:
        self._kernel = kernel
        self._uncovered = uncovered

    def best(self) -> "tuple[int, int]":
        return self._kernel.best_gain_index(self._uncovered)

    def cover(self, newly: int) -> None:
        self._uncovered &= ~newly
