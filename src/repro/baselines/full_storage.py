"""Store-everything baselines: one pass, Θ(mn) space, offline solve.

These mark the trivial upper end of the space axis that Theorem 1 shows is
unavoidable up to the ``n^{1-1/α}`` factor for α-approximation.  The storage
pass is batched — one kernel call for all per-set sizes — with the space
meter still charged in arrival order so budget enforcement matches the
per-set loop exactly.
"""

from __future__ import annotations

from repro.setcover.exact import exact_set_cover
from repro.setcover.greedy import greedy_set_cover
from repro.streaming.algorithm_base import StreamingAlgorithm, StreamingResult
from repro.streaming.stream import SetStream


class StoreEverythingSetCover(StreamingAlgorithm):
    """Store the whole stream, then solve set cover offline."""

    name = "store-everything-setcover"

    def __init__(self, solver: str = "greedy") -> None:
        super().__init__()
        if solver not in ("exact", "greedy"):
            raise ValueError(f"solver must be 'exact' or 'greedy', got {solver!r}")
        self.solver = solver

    def run(self, stream: SetStream) -> StreamingResult:
        streamed = stream.batched_pass()
        sizes = streamed.kernel().set_sizes()
        stored = 0
        for set_index in stream.arrival_order:
            stored += sizes[set_index]
            self.space.set_usage("stored_incidences", stored)
        # The stored copy is mask-identical to the streamed system, so the
        # offline solve runs on it directly — reusing its already-built
        # kernel instead of packing a fresh one per run.
        if self.solver == "exact":
            solution = exact_set_cover(streamed)
        else:
            solution = greedy_set_cover(streamed)
        self.space.set_usage("solution", len(solution))
        return self._finalize(stream, solution)
