"""Single-pass streaming greedy in the style of Saha and Getoor (SDM 2009).

The algorithm keeps a running partial cover: a set from the stream is added to
the solution whenever it covers at least a ``threshold_fraction`` of the
still-uncovered elements (the original paper uses simple "does it help"
heuristics; the thresholded form is the standard presentation).  One pass,
space O(n + solution), but the approximation can be as bad as Ω(√n) on
adversarial orders — the behaviour E11 contrasts with Algorithm 1.

The pass is batched: one kernel call computes every set's gain against the
pass-entry universe, and since gains only shrink as picks land, sets that
start at gain 0 can never be picked — only the live candidates are re-checked
against the current uncovered mask, in arrival order, with the seed's exact
pick rule.
"""

from __future__ import annotations

from repro.streaming.algorithm_base import StreamingAlgorithm, StreamingResult
from repro.streaming.stream import SetStream
from repro.utils.bitset import bitset_size


class SahaGetoorGreedy(StreamingAlgorithm):
    """One-pass thresholded streaming greedy set cover."""

    name = "saha-getoor-greedy"

    def __init__(self, threshold_fraction: float = 0.0) -> None:
        super().__init__()
        if not 0.0 <= threshold_fraction < 1.0:
            raise ValueError(
                f"threshold_fraction must lie in [0, 1), got {threshold_fraction}"
            )
        self.threshold_fraction = threshold_fraction

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        uncovered = (1 << n) - 1
        solution = []
        self.space.set_usage("uncovered_universe", n)
        system = stream.batched_pass()
        entry_gains = system.kernel().gains(uncovered)
        for set_index in stream.arrival_order:
            if uncovered == 0:
                break
            if entry_gains[set_index] == 0:
                continue
            mask = system.mask(set_index)
            gain = bitset_size(mask & uncovered)
            if gain == 0:
                continue
            remaining = bitset_size(uncovered)
            if gain >= max(1, self.threshold_fraction * remaining):
                solution.append(set_index)
                uncovered &= ~mask
                self.space.set_usage("solution", len(solution))
        metadata = {
            "uncovered_after_run": bitset_size(uncovered),
            "threshold_fraction": self.threshold_fraction,
        }
        return self._finalize(stream, solution, metadata=metadata)
