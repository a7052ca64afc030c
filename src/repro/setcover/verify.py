"""Verification helpers for set cover solutions.

Every algorithm in the library returns set indices; these helpers confirm
feasibility against the instance so tests and the experiment harness never
trust an algorithm's own claim of correctness.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Sequence

from repro.setcover.instance import SetSystem
from repro.utils.bitset import bitset_size, iter_bits


def is_feasible_cover(system: SetSystem, indices: Iterable[int]) -> bool:
    """Return True iff the sets at ``indices`` cover the whole universe."""
    return system.covers_universe(list(indices))


def verify_cover(system: SetSystem, indices: Sequence[int]) -> None:
    """Raise ``ValueError`` (with the missing elements) unless feasible.

    Also rejects out-of-range or duplicate indices, which would silently
    inflate/deflate solution sizes in the experiment tables.  Works on the
    missing-elements bitset directly (count by popcount, examples straight
    off ``iter_bits``) — verification of a large feasible cover never
    materialises a per-element set.
    """
    seen = set()
    for index in indices:
        if not 0 <= index < system.num_sets:
            raise ValueError(f"set index {index} out of range [0, {system.num_sets})")
        if index in seen:
            raise ValueError(f"duplicate set index {index} in solution")
        seen.add(index)
    missing_mask = system.uncovered_mask(list(indices))
    if missing_mask:
        sample = list(islice(iter_bits(missing_mask), 10))
        raise ValueError(
            f"solution does not cover the universe; {bitset_size(missing_mask)} "
            f"elements missing (e.g. {sample})"
        )
