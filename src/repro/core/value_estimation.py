"""Streaming estimation of the optimal set cover *value*.

Theorem 1 emphasises that the Ω̃(m·n^{1/α}) lower bound applies "even for the
weaker goal of estimating the optimal value of the set cover instance (as
opposed to finding the actual sets)".  This module provides the corresponding
upper-bound object: a streaming algorithm that outputs only a number — an
(α+ε)-approximation of opt — by running Algorithm 1's sampling machinery and
discarding the witness sets.  Its space profile matches Algorithm 1's (it is
the same machinery), which is exactly what the paper says cannot be improved.

It also provides a cheap single-pass *lower-bound estimator* (the counting
bound n / max|S_i|) used by the experiments as a sanity baseline: it needs
only O(1) words but its estimate can be off by an unbounded factor, so it
does not contradict the lower bound.
"""

from __future__ import annotations

from typing import Optional

from repro.core.algorithm1 import AlgorithmOneConfig, StreamingSetCover
from repro.core.guessing import OptGuessingSetCover
from repro.streaming.algorithm_base import StreamingAlgorithm, StreamingResult
from repro.streaming.stream import SetStream
from repro.utils.rng import SeedLike


class SetCoverValueEstimator(StreamingAlgorithm):
    """(α+ε)-approximate estimator of opt that reports only the value.

    Internally runs :class:`OptGuessingSetCover` (or a single
    :class:`StreamingSetCover` when ``opt_guess`` is provided) and returns the
    size of the found cover as the value estimate, with an empty solution
    list — mirroring the "estimate only" formulation of Theorem 1.
    """

    name = "setcover-value-estimator"

    def __init__(
        self,
        alpha: int,
        epsilon: float = 0.5,
        opt_guess: Optional[int] = None,
        sampling_constant: float = 16.0,
        subinstance_solver: str = "exact",
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        self.alpha = alpha
        self.epsilon = epsilon
        self.opt_guess = opt_guess
        self.sampling_constant = sampling_constant
        self.subinstance_solver = subinstance_solver
        self._seed = seed

    def run(self, stream: SetStream) -> StreamingResult:
        if self.opt_guess is not None:
            inner: StreamingAlgorithm = StreamingSetCover(
                AlgorithmOneConfig(
                    alpha=self.alpha,
                    opt_guess=self.opt_guess,
                    epsilon=self.epsilon,
                    sampling_constant=self.sampling_constant,
                    subinstance_solver=self.subinstance_solver,
                ),
                seed=self._seed,
            )
        else:
            inner = OptGuessingSetCover(
                alpha=self.alpha,
                epsilon=self.epsilon,
                sampling_constant=self.sampling_constant,
                subinstance_solver=self.subinstance_solver,
                seed=self._seed,
            )
        inner_result = inner.run(stream)
        # Mirror the inner algorithm's space usage on our own meter so the
        # engine-level accounting sees the true footprint.
        for category, words in inner_result.space.peak_by_category.items():
            self.space.set_usage(category, words)
            self.space.set_usage(category, 0)
        return StreamingResult(
            solution=[],
            estimated_value=float(inner_result.solution_size),
            passes=inner_result.passes,
            space=inner_result.space,
            metadata={
                "inner_algorithm": inner.name,
                "witness_size": inner_result.solution_size,
            },
        )


class CountingBoundEstimator(StreamingAlgorithm):
    """One-pass O(1)-word lower-bound estimator: ceil(n / max set size).

    Always a valid *lower bound* on opt, never an α-approximation for any
    fixed α — included as the "cheap but uninformative" end of the estimation
    spectrum that Theorem 1's lower bound does not (and need not) exclude.
    """

    name = "counting-bound-estimator"

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        self.space.set_usage("counters", 2)
        # One batched kernel call replaces the per-set popcount loop.
        sizes = stream.batched_pass().kernel().set_sizes()
        largest = max(sizes, default=0)
        if largest == 0:
            estimate = float("inf") if n > 0 else 0.0
        else:
            estimate = float(-(-n // largest))
        return self._finalize(stream, [], estimated_value=estimate)
