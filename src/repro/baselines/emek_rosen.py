"""Semi-streaming set cover in the spirit of Emek and Rosén (ICALP 2014).

One pass, Õ(n) space: for every element the algorithm remembers the best
"effectiveness" set seen so far (a set's effectiveness for an element is the
reciprocal of the number of new elements it would be credited with).  At the
end of the pass the remembered sets form the solution.  The approximation is
O(√n) — which is optimal for single-pass Õ(n)-space algorithms — and E11 uses
it as the "small space, weak approximation" end of the tradeoff curve.

The pass is one batched kernel call.  The seed's per-set loop keeps, for each
element, a running strict maximum of the sizes of the sets containing it and
credits the element to the set that last raised that maximum — i.e. to the
*first set in arrival order achieving the maximum size*.  Folding the arrival
position into a per-set priority key turns the whole pass into a single
:meth:`~repro.kernels.base.Kernel.claim_resolution` argmax, byte-identical to
the sequential bookkeeping on both kernel backends.
"""

from __future__ import annotations

from typing import List

from repro.streaming.algorithm_base import StreamingAlgorithm, StreamingResult
from repro.streaming.stream import SetStream
from repro.utils.bitset import bitset_size


class EmekRosenSemiStreaming(StreamingAlgorithm):
    """One-pass semi-streaming set cover: per-element best-set bookkeeping."""

    name = "emek-rosen-semi-streaming"

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        # For each element: (credited set index, credit size of that set) —
        # the retained state the space accounting charges, even though the
        # batched pass resolves all claims in one kernel call.
        self.space.set_usage("per_element_state", 2 * n)

        system = stream.batched_pass()
        kernel = system.kernel()
        m = system.num_sets
        sizes = kernel.set_sizes()
        # An element's final credit goes to the largest set containing it,
        # ties to the earliest arrival.  Encode both in one key: the size in
        # the high part, the (reversed) arrival position in the low part, so
        # a plain per-element argmax reproduces the sequential credit chain.
        # Size-0 sets keep key 0 and never claim, as in the per-set loop.
        keys: List[int] = [0] * m
        for position, set_index in enumerate(stream.arrival_order):
            size = sizes[set_index]
            if size:
                keys[set_index] = size * m + (m - 1 - position)
        responsible = kernel.claim_resolution(keys)

        solution = sorted({index for index in responsible if index >= 0})
        self.space.set_usage("solution", len(solution))
        covered = system.coverage_mask(solution) if solution else 0
        metadata = {
            "uncovered_after_run": n - bitset_size(covered),
        }
        return self._finalize(stream, solution, metadata=metadata)
