"""Algorithm 1 of the paper: the (α + ε)-approximation streaming set cover.

The algorithm assumes a value ``õpt`` that (1+ε)-approximates the optimal
cover size (the :class:`~repro.core.guessing.OptGuessingSetCover` wrapper
removes this assumption by running guesses in parallel).  It makes:

* one *pruning pass* picking every set that still covers at least
  ``n / (ε · õpt)`` uncovered elements (at most ``ε · õpt`` such picks), then
* ``α`` iterations, each consisting of an *element sampling* step (Lemma 3.12
  with ``ρ = n^{-1/α}``), a pass storing the projection of every set onto the
  sampled universe, an offline cover of the sampled sub-instance (computation
  is free in the streaming model), and a pass shrinking the uncovered
  universe by the chosen sets.

Total passes: ``2α + 1``; total space: ``Õ(m·n^{1/α}/ε + n)`` for one guess of
``õpt`` (Lemma 3.8), and the solution has at most ``(α + ε)·õpt`` sets
(Lemma 3.10) while covering the universe w.h.p. (Lemma 3.11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.core.element_sampling import element_sample_mask, sampling_probability
from repro.exceptions import InfeasibleInstanceError
from repro.setcover.exact import exact_set_cover
from repro.setcover.greedy import greedy_set_cover
from repro.setcover.instance import SetSystem
from repro.streaming.algorithm_base import StreamingAlgorithm, StreamingResult
from repro.streaming.stream import SetStream
from repro.telemetry import metrics
from repro.telemetry.spans import span
from repro.utils.bitset import bitset_size
from repro.utils.rng import RandomSource, SeedLike, spawn_rng


@dataclass
class AlgorithmOneConfig:
    """Parameters of one Algorithm 1 run (for a fixed guess of ``õpt``).

    Attributes
    ----------
    alpha:
        Target approximation factor α ≥ 1; also the number of sampling rounds.
    opt_guess:
        The assumed (1+ε)-approximation ``õpt`` of the optimal cover size.
    epsilon:
        The ε of the first-pass pruning threshold and the approximation slack.
    sampling_constant:
        The constant in the Lemma 3.12 sampling rate (16 in the paper);
        exposed for the E3 ablation.
    subinstance_solver:
        ``"exact"`` uses the branch-and-bound optimum (as the paper assumes —
        computation is free in the model); ``"greedy"`` trades the per-round
        guarantee for speed on large sampled sub-instances.

    Elements left uncovered after the α rounds (the failure event of Lemma
    3.11) are covered by one extra clean-up pass, so the returned solution is
    a feasible cover whenever the instance has one.
    """

    alpha: int = 2
    opt_guess: int = 1
    epsilon: float = 0.5
    sampling_constant: float = 16.0
    subinstance_solver: str = "exact"

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.opt_guess < 1:
            raise ValueError(f"opt_guess must be >= 1, got {self.opt_guess}")
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.subinstance_solver not in ("exact", "greedy"):
            raise ValueError(
                f"subinstance_solver must be 'exact' or 'greedy', got {self.subinstance_solver!r}"
            )


class StreamingSetCover(StreamingAlgorithm):
    """Algorithm 1: (α + ε)-approximate set cover in 2α + 1 passes."""

    name = "assadi-algorithm1"

    def __init__(
        self,
        config: AlgorithmOneConfig,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.config = config
        self._rng: RandomSource = spawn_rng(seed)

    # -- main entry point ----------------------------------------------------
    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        m = stream.num_sets
        cfg = self.config
        metadata: Dict[str, object] = {
            "alpha": cfg.alpha,
            "opt_guess": cfg.opt_guess,
            "epsilon": cfg.epsilon,
            "sample_sizes": [],
            "stored_incidences_per_round": [],
            "cleanup_used": False,
        }

        solution: List[int] = []
        chosen = set()
        uncovered_mask = (1 << n) - 1
        # The uncovered universe and the solution are part of the retained
        # state: n words for U (the paper's +n term) and |SOL| words.
        self.space.set_usage("uncovered_universe", n)
        self.space.set_usage("solution", 0)

        # ------------------------------------------------------------------
        # Pass 1: pruning — pick every set covering >= n / (eps * opt_guess)
        # still-uncovered elements.
        # ------------------------------------------------------------------
        threshold = n / (cfg.epsilon * cfg.opt_guess)
        with span("alg1.prune", threshold=threshold) as prune_span:
            uncovered_at_entry = bitset_size(uncovered_mask)
            uncovered_mask = self._admission_pass(
                stream, uncovered_mask, threshold, chosen, solution
            )
            covered = uncovered_at_entry - bitset_size(uncovered_mask)
            _record_phase(prune_span, len(solution), covered)

        # ------------------------------------------------------------------
        # alpha iterations of element sampling.
        # ------------------------------------------------------------------
        rho = n ** (-1.0 / cfg.alpha) if n > 1 else 0.5
        for _round in range(cfg.alpha):
            if uncovered_mask == 0:
                break
            with span("alg1.round", round=_round) as round_span:
                uncovered_at_entry = bitset_size(uncovered_mask)
                probability = sampling_probability(
                    universe_size=n,
                    num_sets=m,
                    cover_size_bound=cfg.opt_guess,
                    rho=rho,
                    constant=cfg.sampling_constant,
                )
                with span("alg1.sample", probability=probability):
                    sampled_mask = element_sample_mask(
                        uncovered_mask, probability, seed=self._rng.spawn()
                    )
                sample_size = bitset_size(sampled_mask)
                metadata["sample_sizes"].append(sample_size)
                self.space.set_usage("sampled_universe", sample_size)

                # Pass: store the projection of every set onto the sampled
                # universe — one batched kernel call; the incidence count is the
                # popcount of the rows it already produced.
                system = stream.batched_pass()
                with span("alg1.project", sample_size=sample_size) as project_span:
                    projected_masks: List[int] = system.kernel().restrict(sampled_mask)
                    stored_incidences = sum(
                        bitset_size(mask) for mask in projected_masks
                    )
                    project_span.set(stored_incidences=stored_incidences)
                self.space.set_usage("stored_incidences", stored_incidences)
                metadata["stored_incidences_per_round"].append(stored_incidences)

                # Offline: cover the sampled universe optimally (computation free).
                with span(
                    "alg1.solve", solver=cfg.subinstance_solver
                ) as solve_span:
                    round_solution = self._solve_subinstance(
                        n, projected_masks, sampled_mask, chosen
                    )
                    solve_span.set(round_solution_size=len(round_solution))

                # Pass: shrink the uncovered universe by the chosen (full) sets.
                system = stream.batched_pass()
                with span("alg1.shrink"):
                    uncovered_mask &= ~system.coverage_mask(round_solution)
                admitted = 0
                for set_index in round_solution:
                    if set_index not in chosen:
                        chosen.add(set_index)
                        solution.append(set_index)
                        admitted += 1
                self.space.set_usage("solution", len(solution))
                # Projections are discarded between rounds (one-shot pruning keeps
                # only the solution and the uncovered universe).
                self.space.reset_category("stored_incidences")
                self.space.reset_category("sampled_universe")
                covered = uncovered_at_entry - bitset_size(uncovered_mask)
                _record_phase(round_span, admitted, covered)

        # ------------------------------------------------------------------
        # Clean-up pass, taken only when elements are left: admit every set
        # that still covers one, so the solution is feasible even when the
        # low-probability failure event of Lemma 3.11 occurs.
        # ------------------------------------------------------------------
        if uncovered_mask != 0:
            metadata["cleanup_used"] = True
            with span("alg1.cleanup") as cleanup_span:
                uncovered_at_entry = bitset_size(uncovered_mask)
                picks_before = len(solution)
                uncovered_mask = self._admission_pass(
                    stream, uncovered_mask, 1, chosen, solution
                )
                admitted = len(solution) - picks_before
                covered = uncovered_at_entry - bitset_size(uncovered_mask)
                _record_phase(cleanup_span, admitted, covered)

        metadata["uncovered_after_run"] = bitset_size(uncovered_mask)
        return self._finalize(stream, solution, metadata=metadata)

    # -- internals ----------------------------------------------------------
    def _solve_subinstance(
        self,
        n: int,
        projected_masks: List[int],
        target_mask: int,
        already_chosen: set,
    ) -> List[int]:
        """Cover the sampled universe using the stored projections."""
        if target_mask == 0:
            return []
        system = SetSystem.from_masks(n, projected_masks)
        # Elements of the sample already covered by previously chosen sets do
        # not need to be covered again.
        residual = target_mask
        for index in already_chosen:
            residual &= ~projected_masks[index]
        if residual == 0:
            return []
        try:
            if self.config.subinstance_solver == "exact":
                return exact_set_cover(system, target_mask=residual)
            return greedy_set_cover(system, required_mask=residual)
        except InfeasibleInstanceError:
            # The sampled elements not present in any set cannot be covered by
            # anyone; drop them (they are also uncoverable in the original
            # instance, or the guess õpt was wrong — the guessing wrapper
            # handles the latter by preferring feasible runs).
            coverable = 0
            for mask in projected_masks:
                coverable |= mask
            residual &= coverable
            if residual == 0:
                return []
            if self.config.subinstance_solver == "exact":
                return exact_set_cover(system, target_mask=residual)
            return greedy_set_cover(system, required_mask=residual)


def _record_phase(active_span, admitted: int, covered: int) -> None:
    """Report a phase's admitted sets and newly covered elements."""
    active_span.set(sets_admitted=admitted, elements_covered=covered)
    metrics.add("alg1.sets_admitted", admitted)
    metrics.add("alg1.elements_covered", covered)
    metrics.observe("pass.sets_admitted", admitted)
    metrics.observe("pass.elements_covered", covered)


def expected_pass_count(alpha: int, cleanup: bool = False) -> int:
    """The paper's pass count 2α + 1 (plus one optional clean-up pass)."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return 2 * alpha + 1 + (1 if cleanup else 0)


def solution_size_bound(alpha: int, epsilon: float, opt_guess: int) -> float:
    """Lemma 3.10: the solution has at most (α + ε) · õpt sets."""
    return (alpha + epsilon) * opt_guess


def space_bound_words(
    universe_size: int,
    num_sets: int,
    alpha: int,
    epsilon: float,
    constant: float = 16.0,
) -> float:
    """Lemma 3.8 shape: Õ(m·n^{1/α}/ε + n) expected stored words.

    Returns the explicit expression ``constant · m · n^{1/α} · ln(m) / ε + n``.
    No experiment evaluates it: E1 reports the Theorem 1 lower bound and
    fitted exponents, so Algorithm 1's measured peak space is not yet
    checked against this upper bound.
    """
    if universe_size <= 1:
        return float(universe_size)
    log_m = math.log(max(num_sets, 2))
    return constant * num_sets * universe_size ** (1.0 / alpha) * log_m / epsilon + universe_size
