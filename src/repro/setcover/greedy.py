"""The classical greedy set cover algorithm (lazy / CELF evaluation).

Greedy repeatedly picks the set covering the most uncovered elements and
achieves a ``ln n`` approximation [Johnson 1974, Slavik 1997] — the offline
baseline the paper's introduction positions streaming algorithms against, and
the solver Algorithm 1 uses on its (small) sampled sub-instances when an exact
answer is not required.

The implementation is the CELF-style *lazy* greedy [Minoux 1978; Leskovec et
al. 2007]: marginal gains are submodular (they only shrink as the cover
grows), so stale gains in a max-heap are upper bounds and the top of the heap
can be certified optimal by a single re-evaluation instead of rescanning all
``m`` sets per pick.  The heap is keyed ``(-gain, index)``, which reproduces
the eager implementation's tie-break (smallest index among the maximum-gain
sets) exactly — traces are byte-identical to the seed rescan loop on every
instance, for every compute backend.

Lazy evaluation has one pathological regime: near-uniform gains that all
shrink together (dense i.i.d. instances), where certifying the top can pop
most of the heap every pick.  When a pick burns through the stale-pop budget
(:data:`_STALE_POP_ESCAPE`), the run switches permanently to the kernel's
:meth:`~repro.kernels.base.Kernel.gain_tracker` — a seed-equivalent rescan
per pick on the pure-Python and windowed kernels.  The packed-matrix
backends rescan too until the kernel has served enough rescans to pay for
an inverted element→sets index, then maintain exact gains by per-incidence
decrements through it (jit-compiled on the ``compiled`` tier); later runs on
that kernel start on the tracker.  The pick rule (max gain, lowest index,
already-chosen sets sit at gain 0) is identical in every regime, so
switching never changes the trace, only the wall-clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.exceptions import InfeasibleInstanceError
from repro.setcover.instance import SetSystem
from repro.utils.bitset import bitset_size

#: Stale pops tolerated within one pick before abandoning lazy evaluation:
#: past ``this + len(heap)/32`` pops, batched gain maintenance wins.
_STALE_POP_ESCAPE = 64


class LazyGreedyPicker:
    """The greedy pick rule with adaptive evaluation strategy.

    Starts as a CELF max-heap over stale gains (one batched kernel call
    seeds it; zero-gain sets — including fully-covered ones — are dropped up
    front and whenever a refresh hits 0).  If a single pick exceeds the
    stale-pop budget, the run has degenerated into mass staleness and the
    picker hands over to the kernel's :class:`~repro.kernels.base.GainTracker`
    for the rest of the run.  Both strategies implement exactly the seed
    pick rule: maximum gain, smallest index, gain 0 meaning "nothing left".
    """

    def __init__(self, kernel, uncovered: int) -> None:
        self._kernel = kernel
        self._heap: List[Tuple[int, int]] = []
        if kernel.prefers_tracker():
            self._tracker = kernel.gain_tracker(uncovered)
            return
        self._tracker = None
        self._heap = [
            (-gain, index)
            for index, gain in enumerate(kernel.gains(uncovered))
            if gain > 0
        ]
        heapq.heapify(self._heap)

    def best(self, uncovered: int) -> Tuple[int, int]:
        """Return ``(best_index, best_gain)`` against ``uncovered``.

        A gain of 0 means no remaining set intersects ``uncovered``; the
        index is then meaningless.
        """
        if self._tracker is not None:
            return self._tracker.best()
        heap = self._heap
        budget = _STALE_POP_ESCAPE + (len(heap) >> 5)
        while heap:
            neg_stale, index = heapq.heappop(heap)
            gain = self._kernel.gain(index, uncovered)
            if gain == -neg_stale:
                # Stale value was current: every other entry's true gain is
                # bounded by its larger heap key, so this is the
                # smallest-index argmax.
                return index, gain
            if gain:
                heapq.heappush(heap, (-gain, index))
            budget -= 1
            if budget <= 0:
                break  # mass staleness: switch strategies for good
        else:
            return -1, 0  # heap exhausted: no set intersects uncovered
        self._tracker = self._kernel.gain_tracker(uncovered)
        return self._tracker.best()

    def cover(self, newly: int) -> None:
        """Report the elements the chosen set just covered."""
        if self._tracker is not None:
            self._tracker.cover(newly)


@dataclass
class GreedyStep:
    """One iteration of the greedy algorithm (for tracing / teaching)."""

    chosen_set: int
    newly_covered: int
    remaining_uncovered: int


@dataclass
class GreedyTrace:
    """Full record of a greedy run: chosen sets plus per-step statistics."""

    solution: List[int] = field(default_factory=list)
    steps: List[GreedyStep] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of sets in the greedy solution."""
        return len(self.solution)


def greedy_cover_trace(
    system: SetSystem,
    required_mask: Optional[int] = None,
    max_sets: Optional[int] = None,
) -> GreedyTrace:
    """Run greedy set cover and return the full trace.

    Parameters
    ----------
    system:
        The set system to cover.
    required_mask:
        Optional bitset of elements that must be covered (defaults to the whole
        universe).  Used by streaming algorithms that only need to cover the
        still-uncovered portion of the universe.
    max_sets:
        Optional cap on the number of sets greedy may pick; if the cap is hit
        before full coverage an :class:`InfeasibleInstanceError` is raised.
    """
    universe = required_mask
    if universe is None:
        universe = system.uncovered_mask([])  # full universe mask
    uncovered = universe
    trace = GreedyTrace()
    if not uncovered:
        return trace
    picker = LazyGreedyPicker(system.kernel(), uncovered)
    while uncovered:
        best_index, best_gain = picker.best(uncovered)
        if best_gain == 0:
            raise InfeasibleInstanceError(
                "greedy cannot make progress: remaining elements are uncoverable"
            )
        chosen_mask = system.mask(best_index)
        picker.cover(chosen_mask & uncovered)
        uncovered &= ~chosen_mask
        trace.solution.append(best_index)
        trace.steps.append(
            GreedyStep(
                chosen_set=best_index,
                newly_covered=best_gain,
                remaining_uncovered=bitset_size(uncovered),
            )
        )
        if max_sets is not None and len(trace.solution) >= max_sets and uncovered:
            raise InfeasibleInstanceError(
                f"greedy exceeded the cap of {max_sets} sets before covering the target"
            )
    return trace


def greedy_set_cover(
    system: SetSystem,
    required_mask: Optional[int] = None,
) -> List[int]:
    """Return the list of set indices chosen by greedy (in pick order)."""
    return greedy_cover_trace(system, required_mask=required_mask).solution
