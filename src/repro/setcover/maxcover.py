"""Offline maximum coverage solvers.

Maximum coverage asks for ``k`` sets covering as many elements as possible.
The paper's Result 2 / Theorem 4 concerns its streaming variant; here we
provide the offline greedy ``(1 - 1/e)``-approximation and an exact solver
(used as ground truth for the ``D_MC`` gap experiments, where ``k = 2``).

The greedy solver runs on the shared lazy picker, so its picks flow through
the same batched kernel primitives as set cover — any registered backend
(python / numpy / compiled) yields the identical ``(chosen, covered)``
answer, a parity the conformance and property suites pin down.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Tuple

from repro.setcover.greedy import LazyGreedyPicker
from repro.setcover.instance import SetSystem
from repro.utils.bitset import bitset_size


def greedy_max_coverage(
    system: SetSystem, k: int, within_mask: Optional[int] = None
) -> Tuple[List[int], int]:
    """Greedy ``(1 - 1/e)``-approximate maximum coverage.

    Returns the chosen indices (in pick order) and the number of covered
    elements.  Uses CELF-style lazy evaluation (see
    :mod:`repro.setcover.greedy`): stale heap gains are upper bounds by
    submodularity, and the ``(-gain, index)`` heap key reproduces the eager
    tie-break (smallest index among the maximum-gain sets) exactly.

    ``within_mask`` restricts the objective to an element subset: picks and
    value are exactly those of running on ``system.restrict_to_elements
    (within_mask)`` — every gain is ``|S_i ∩ within ∩ uncovered|`` — without
    materialising the projected system.  This is how the streaming
    max-coverage algorithms solve their sampled sub-instances on the
    original system's already-built kernel.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    chosen: List[int] = []
    covered = 0
    limit = min(k, system.num_sets)
    if limit == 0:
        return [], 0
    universe = system.uncovered_mask([]) if within_mask is None else within_mask
    picker = LazyGreedyPicker(system.kernel(), universe)
    for _ in range(limit):
        uncovered = universe & ~covered
        best_index, best_gain = picker.best(uncovered)
        if best_gain <= 0:
            break
        chosen.append(best_index)
        chosen_mask = system.mask(best_index)
        picker.cover(chosen_mask & uncovered)
        covered |= chosen_mask
    return chosen, bitset_size(covered & universe)


def exact_max_coverage(
    system: SetSystem, k: int, candidate_indices: Optional[List[int]] = None
) -> Tuple[List[int], int]:
    """Exact maximum coverage by enumeration over k-subsets.

    Feasible for the small ``k`` used throughout the paper's hard instances
    (``k = 2`` in `D_MC`, ``k ≤ 2α`` in `D_SC` checks).  ``candidate_indices``
    restricts the search to a subset of the sets.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    candidates = list(candidate_indices) if candidate_indices is not None else list(
        range(system.num_sets)
    )
    k = min(k, len(candidates))
    if k == 0:
        return [], 0
    best_combo: List[int] = []
    best_value = -1
    for combo in combinations(candidates, k):
        value = system.coverage(list(combo))
        if value > best_value:
            best_value = value
            best_combo = list(combo)
            if best_value == system.universe_size:
                break
    return best_combo, best_value
