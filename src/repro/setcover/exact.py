"""Exact set cover solvers.

The exact solvers serve two roles in the reproduction:

* ground truth for approximation ratios in tests and small experiments, and
* the "unbounded computation" step of Algorithm 1 (the paper's streaming model
  only restricts space, not time — step 3(c) of Algorithm 1 finds an *optimal*
  cover of the sampled sub-instance).

The main solver is a branch-and-bound search with greedy upper bounds and a
simple counting lower bound; :func:`brute_force_set_cover` enumerates all
subsets and is used only to validate the branch-and-bound solver on tiny
instances in the test suite.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence

from repro.exceptions import InfeasibleInstanceError
from repro.setcover.instance import SetSystem
from repro.setcover.greedy import greedy_set_cover
from repro.utils.bitset import bitset_size, iter_bits


def _check_coverable(system: SetSystem, target_mask: int) -> None:
    union = 0
    for index in range(system.num_sets):
        union |= system.mask(index)
    if target_mask & ~union:
        raise InfeasibleInstanceError(
            "no feasible cover: some target elements appear in no set"
        )


def brute_force_set_cover(
    system: SetSystem, target_mask: Optional[int] = None
) -> List[int]:
    """Exhaustively find a minimum cover (exponential; tiny instances only)."""
    target = system.uncovered_mask([]) if target_mask is None else target_mask
    if target == 0:
        return []
    _check_coverable(system, target)
    indices = range(system.num_sets)
    for size in range(1, system.num_sets + 1):
        for combo in combinations(indices, size):
            covered = 0
            for index in combo:
                covered |= system.mask(index)
            if target & ~covered == 0:
                return list(combo)
    raise InfeasibleInstanceError("no feasible cover exists")  # pragma: no cover


class _BranchAndBound:
    """Branch-and-bound minimum set cover over bitset masks.

    Element frequencies never change during a search, so the branching index
    is built once: the target elements ranked by ``(frequency, element)``
    and, for each, its candidate sets in :attr:`order`.  At every node the
    pivot is the first ranked element still uncovered (the classic "most
    constrained element" rule) and its candidates are branched on in order.
    """

    def __init__(self, system: SetSystem, target_mask: int) -> None:
        self.system = system
        self.masks = system.masks()
        self.target = target_mask
        # Pre-sort candidate sets by size (descending) so greedy-like branches
        # are explored first and the upper bound tightens quickly.
        self.order = sorted(
            range(system.num_sets),
            key=lambda i: bitset_size(self.masks[i] & target_mask),
            reverse=True,
        )
        self.candidates: Dict[int, List[int]] = {e: [] for e in iter_bits(target_mask)}
        for index in self.order:
            for element in iter_bits(self.masks[index] & target_mask):
                self.candidates[element].append(index)
        # An element's frequency is the length of its candidate list; the
        # stable sort of ascending elements breaks ties by element.
        self.ranking = sorted(self.candidates, key=lambda e: len(self.candidates[e]))
        self.best_solution: Optional[List[int]] = None
        self.best_size = system.num_sets + 1
        # Maximum coverage of any single set, used for the lower bound.
        self.max_set_size = max(
            (bitset_size(mask & target_mask) for mask in self.masks), default=0
        )

    def _lower_bound(self, uncovered: int) -> int:
        remaining = bitset_size(uncovered)
        if remaining == 0:
            return 0
        if self.max_set_size == 0:
            return self.best_size + 1
        return -(-remaining // self.max_set_size)  # ceil division

    def solve(self) -> List[int]:
        # Seed the upper bound with greedy.
        greedy = greedy_set_cover(self.system, required_mask=self.target)
        self.best_solution = list(greedy)
        self.best_size = len(greedy)
        self._search(self.target, [], 0)
        assert self.best_solution is not None
        return self.best_solution

    def _search(self, uncovered: int, chosen: List[int], rank: int) -> None:
        if uncovered == 0:
            if len(chosen) < self.best_size:
                self.best_size = len(chosen)
                self.best_solution = list(chosen)
            return
        if len(chosen) + self._lower_bound(uncovered) >= self.best_size:
            return
        # Elements ranked before ``rank`` were covered at the parent node and
        # stay covered here, so the scan resumes where the parent's ended.
        ranking = self.ranking
        while not uncovered >> ranking[rank] & 1:
            rank += 1
        masks = self.masks
        for index in self.candidates[ranking[rank]]:
            chosen.append(index)
            self._search(uncovered & ~masks[index], chosen, rank + 1)
            chosen.pop()


def exact_set_cover(
    system: SetSystem, target_mask: Optional[int] = None
) -> List[int]:
    """Return a minimum-cardinality cover of the target (default: universe).

    Raises :class:`InfeasibleInstanceError` when no cover exists.
    """
    target = system.uncovered_mask([]) if target_mask is None else target_mask
    if target == 0:
        return []
    _check_coverable(system, target)
    return _BranchAndBound(system, target).solve()


def exact_cover_value(
    system: SetSystem, target_mask: Optional[int] = None
) -> int:
    """Return the size of a minimum cover (``opt`` in the paper's notation)."""
    return len(exact_set_cover(system, target_mask))


def exact_cover_of_elements(system: SetSystem, elements: Sequence[int]) -> List[int]:
    """Convenience wrapper: minimum cover of an explicit element list."""
    mask = 0
    for element in elements:
        mask |= 1 << element
    return exact_set_cover(system, target_mask=mask)
