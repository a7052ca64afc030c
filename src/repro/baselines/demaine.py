"""Multi-pass thresholded greedy (Demaine et al., DISC 2014 flavour).

The algorithm makes O(α) passes; in pass j it picks every set that covers at
least ``n / 2^j``-ish uncovered elements (a geometric threshold schedule).
It needs only Õ(m·n^{Θ(1/log α)}) space in the original analysis; here the
retained state is just the uncovered universe and the solution, so its space
is small but its approximation guarantee is log n-ish rather than α — the
other historical point on the tradeoff curve for E11.

Each pass is the threshold pass in arrival order that Algorithm 1's and
Har-Peled's pruning also make
(:meth:`~repro.streaming.algorithm_base.StreamingAlgorithm._admission_pass`);
only the thresholds differ.
"""

from __future__ import annotations

from typing import List

from repro.streaming.algorithm_base import StreamingAlgorithm, StreamingResult
from repro.streaming.stream import SetStream
from repro.utils.bitset import bitset_size


class ProgressiveGreedyPasses(StreamingAlgorithm):
    """Multi-pass geometric-threshold greedy set cover."""

    name = "demaine-progressive-greedy"

    def __init__(self, num_passes: int) -> None:
        super().__init__()
        if num_passes < 1:
            raise ValueError(f"num_passes must be >= 1, got {num_passes}")
        self.num_passes = num_passes

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        uncovered = (1 << n) - 1
        solution: List[int] = []
        chosen = set()
        self.space.set_usage("uncovered_universe", n)

        for pass_index in range(self.num_passes):
            if uncovered == 0:
                break
            # Threshold decays geometrically from n/2 down to 1.
            threshold = max(1.0, n / (2 ** (pass_index + 1)))
            final_pass = pass_index == self.num_passes - 1
            if final_pass:
                threshold = 1.0
            uncovered = self._admission_pass(stream, uncovered, threshold, chosen, solution)

        metadata = {"uncovered_after_run": bitset_size(uncovered)}
        return self._finalize(stream, solution, metadata=metadata)
