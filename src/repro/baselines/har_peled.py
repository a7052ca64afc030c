"""Multi-pass set cover with *iterative* pruning (Har-Peled et al., PODS 2016).

The original algorithm alternates element sampling with an extra "pruning"
step in every iteration: sets that still cover many uncovered elements are
taken greedily before the sampled sub-instance is solved.  The per-iteration
pruning threshold decays geometrically, which is what pushes the space
exponent to Θ(1/α) with a constant larger than 2; the paper's Algorithm 1
replaces this with a single up-front pruning pass and a sharper sampling rate,
reaching exactly n^{1/α}.

This reimplementation is faithful at the level the two papers describe the
difference (E11's ablation: iterative vs one-shot pruning), not a line-by-line
port of [32]'s pseudo-code.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.core.element_sampling import element_sample_mask, sampling_probability
from repro.exceptions import InfeasibleInstanceError
from repro.setcover.exact import exact_set_cover
from repro.setcover.greedy import greedy_set_cover
from repro.setcover.instance import SetSystem
from repro.streaming.algorithm_base import StreamingAlgorithm, StreamingResult
from repro.streaming.stream import SetStream
from repro.utils.bitset import bitset_size
from repro.utils.rng import SeedLike, spawn_rng


class IterativePruningSetCover(StreamingAlgorithm):
    """Har-Peled-style α-approximation with per-iteration pruning.

    Parameters mirror :class:`~repro.core.algorithm1.AlgorithmOneConfig`; the
    key differences from Algorithm 1 are (a) pruning happens inside every
    iteration with a geometrically decreasing threshold and (b) the element
    sampling rate uses the weaker exponent ``2/α`` (the "Θ(1/α) with constant
    ≥ 2" of the original analysis), so the stored projections are larger.
    """

    name = "har-peled-iterative-pruning"

    def __init__(
        self,
        alpha: int,
        opt_guess: int,
        epsilon: float = 0.5,
        subinstance_solver: str = "greedy",
        sampling_constant: float = 16.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        if opt_guess < 1:
            raise ValueError(f"opt_guess must be >= 1, got {opt_guess}")
        self.alpha = alpha
        self.opt_guess = opt_guess
        self.epsilon = epsilon
        self.subinstance_solver = subinstance_solver
        self.sampling_constant = sampling_constant
        self._rng = spawn_rng(seed)

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        m = stream.num_sets
        uncovered = (1 << n) - 1
        solution: List[int] = []
        chosen = set()
        metadata: Dict[str, object] = {"sample_sizes": [], "stored_incidences_per_round": []}
        self.space.set_usage("uncovered_universe", n)

        # The weaker sampling exponent of the original analysis.
        rho = n ** (-min(1.0, 2.0 / self.alpha)) if n > 1 else 0.5

        for iteration in range(self.alpha):
            if uncovered == 0:
                break
            # Iterative pruning pass: threshold decays with the iteration.
            # Batched like Algorithm 1's pruning: the threshold is fixed for
            # the pass and gains only shrink, so one kernel call rules out
            # every set that starts below it; survivors are re-checked in
            # arrival order against the live uncovered mask.
            threshold = n / (self.epsilon * self.opt_guess * (2 ** iteration))
            system = stream.batched_pass()
            entry_gains = system.kernel().gains(uncovered)
            for set_index in stream.arrival_order:
                if set_index in chosen or entry_gains[set_index] < max(1.0, threshold):
                    continue
                mask = system.mask(set_index)
                if bitset_size(mask & uncovered) >= max(1.0, threshold):
                    chosen.add(set_index)
                    solution.append(set_index)
                    uncovered &= ~mask
                    self.space.set_usage("solution", len(solution))
            if uncovered == 0:
                break

            probability = sampling_probability(
                universe_size=n,
                num_sets=m,
                cover_size_bound=self.opt_guess,
                rho=rho,
                constant=self.sampling_constant,
            )
            sample_mask = element_sample_mask(
                uncovered, probability, seed=self._rng.spawn()
            )
            sample_size = bitset_size(sample_mask)
            metadata["sample_sizes"].append(sample_size)
            self.space.set_usage("sampled_universe", sample_size)

            # Pass: store every set's projection onto the sample — one
            # batched kernel call for the per-set projection sizes; the
            # per-arrival accounting walk keeps the space meter's (and any
            # budget's) trajectory exactly the seed's.
            streamed = stream.batched_pass()
            kernel = streamed.kernel()
            projection_sizes = kernel.gains(sample_mask)
            stored = 0
            for set_index in stream.arrival_order:
                stored += projection_sizes[set_index]
                self.space.set_usage("stored_incidences", stored)
            metadata["stored_incidences_per_round"].append(stored)

            # Residual sample: what the chosen sets don't already cover,
            # restricted to what any stored projection could cover.
            target = sample_mask & ~streamed.coverage_mask(chosen)
            target &= kernel.union()
            round_solution: List[int] = []
            if target:
                try:
                    if self.subinstance_solver == "exact":
                        projected = SetSystem.from_masks(n, kernel.restrict(sample_mask))
                        round_solution = exact_set_cover(projected, target_mask=target)
                    else:
                        # Every gain against a subset of the sample is equal
                        # on the projection and the full set, so greedy runs
                        # directly on the streamed system's cached kernel —
                        # no projected system is ever materialised.
                        round_solution = greedy_set_cover(streamed, required_mask=target)
                except InfeasibleInstanceError:
                    round_solution = []

            # Pass: shrink the uncovered universe by the chosen (full) sets.
            system = stream.batched_pass()
            uncovered &= ~system.coverage_mask(round_solution)
            for set_index in round_solution:
                if set_index not in chosen:
                    chosen.add(set_index)
                    solution.append(set_index)
            self.space.set_usage("solution", len(solution))
            self.space.reset_category("stored_incidences")
            self.space.reset_category("sampled_universe")

        if uncovered:
            # Clean-up pass, batched: sets disjoint from the pass-entry
            # uncovered universe stay disjoint as it shrinks.
            system = stream.batched_pass()
            entry_gains = system.kernel().gains(uncovered)
            for set_index in stream.arrival_order:
                if uncovered == 0:
                    break
                if set_index in chosen or entry_gains[set_index] == 0:
                    continue
                mask = system.mask(set_index)
                if mask & uncovered:
                    chosen.add(set_index)
                    solution.append(set_index)
                    uncovered &= ~mask
                    self.space.set_usage("solution", len(solution))
            metadata["cleanup_used"] = True

        metadata["uncovered_after_run"] = bitset_size(uncovered)
        return self._finalize(stream, solution, metadata=metadata)


def har_peled_space_words(
    universe_size: int, num_sets: int, alpha: int, epsilon: float = 0.5
) -> float:
    """Predicted stored words Õ(m·n^{2/α}) for the iterative-pruning algorithm."""
    exponent = min(1.0, 2.0 / alpha)
    log_m = math.log(max(num_sets, 2))
    return 16 * num_sets * universe_size ** exponent * log_m / epsilon + universe_size
