"""Streaming (1 − ε)-approximate maximum k-coverage.

The paper's Section 3.4 discusses using streaming maximum coverage as a
subroutine for set cover and notes that generic (1−ε)-approximation algorithms
(Bateni et al., McGregor–Vu) need Ω(m/ε²) space — which is exactly what
Result 2 shows is necessary.  This module implements the element-sampling
flavour of those algorithms: sample the universe at rate Θ(k log m / (ε² ·
OPT̃)) — here simplified to a rate controlled by ε — store every set's
projection, and solve max coverage on the samples offline.

It is used by the E10 benchmark to exhibit the m/ε² space growth and by the
example applications (blog-watch) as the coverage-maximisation primitive.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.core.element_sampling import element_sample
from repro.setcover.instance import SetSystem
from repro.setcover.maxcover import exact_max_coverage, greedy_max_coverage
from repro.streaming.algorithm_base import StreamingAlgorithm, StreamingResult
from repro.streaming.stream import SetStream
from repro.utils.bitset import bitset_from_iterable
from repro.utils.rng import SeedLike, spawn_rng


class StreamingMaxCoverage(StreamingAlgorithm):
    """Single-pass (1 − ε)-approximate maximum k-coverage via element sampling.

    Parameters
    ----------
    k:
        Number of sets to pick.
    epsilon:
        Target approximation slack; the sampled-universe size (and hence the
        space) grows as 1/ε².
    solver:
        ``"exact"`` enumerates k-subsets of the stored projections (fine for
        the paper's k = O(1) regime); ``"greedy"`` uses the (1−1/e) greedy.
    sampling_constant:
        Leading constant of the sampling rate.
    """

    name = "streaming-max-coverage"

    def __init__(
        self,
        k: int,
        epsilon: float = 0.2,
        solver: str = "exact",
        sampling_constant: float = 4.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        if solver not in ("exact", "greedy"):
            raise ValueError(f"solver must be 'exact' or 'greedy', got {solver!r}")
        self.k = k
        self.epsilon = epsilon
        self.solver = solver
        self.sampling_constant = sampling_constant
        self._rng = spawn_rng(seed)

    def sampling_rate(self, universe_size: int, num_sets: int) -> float:
        """Per-element keep probability Θ(k·log m / (ε²·n))."""
        if universe_size <= 0:
            return 1.0
        log_m = math.log(max(num_sets, 2))
        rate = (
            self.sampling_constant * self.k * log_m / (self.epsilon ** 2 * universe_size)
        )
        return min(1.0, rate)

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        m = stream.num_sets
        rate = self.sampling_rate(n, m)
        sampled_universe = element_sample(range(n), rate, seed=self._rng.spawn())
        sampled_mask = bitset_from_iterable(sampled_universe)
        self.space.set_usage("sampled_universe", len(sampled_universe))

        # Pass: one batched kernel call for every set's projection size; the
        # arrival-order accounting walk keeps the space meter's trajectory
        # identical to the per-set loop.
        streamed = stream.batched_pass()
        kernel = streamed.kernel()
        projection_sizes = kernel.gains(sampled_mask)
        stored = 0
        for set_index in stream.arrival_order:
            stored += projection_sizes[set_index]
            self.space.set_usage("stored_incidences", stored)

        if self.solver == "exact":
            projected = SetSystem.from_masks(n, kernel.restrict(sampled_mask))
            chosen, sampled_value = exact_max_coverage(projected, self.k)
        else:
            # Restricting the objective to the sample on the original system
            # is pick-identical to solving the projected system, and reuses
            # the streamed system's cached kernel.
            chosen, sampled_value = greedy_max_coverage(
                streamed, self.k, within_mask=sampled_mask
            )

        # Estimate the true coverage by rescaling the sampled coverage.
        scale = 1.0 / rate if rate > 0 else 0.0
        estimate = sampled_value * scale
        metadata: Dict[str, object] = {
            "k": self.k,
            "epsilon": self.epsilon,
            "sampling_rate": rate,
            "sampled_universe_size": len(sampled_universe),
            "sampled_coverage": sampled_value,
        }
        return self._finalize(
            stream, chosen, estimated_value=estimate, metadata=metadata
        )


def maxcover_space_bound_words(
    num_sets: int, k: int, epsilon: float, constant: float = 4.0
) -> float:
    """Predicted stored-words curve Θ(m·k·log m/ε²) used by the E10 benchmark."""
    log_m = math.log(max(num_sets, 2))
    return constant * num_sets * k * log_m / (epsilon ** 2)
