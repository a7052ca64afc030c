"""Empirical machinery for Lemma 2.2 (coverage of random large sets).

Lemma 2.2: let ``S_1, ..., S_k`` be independent uniformly random
``(n−s)``-subsets of ``[n]`` and ``U ⊆ [n]`` be independent of them with
``k = o(e^s)``.  Then

    P( |U \\ (S_1 ∪ ... ∪ S_k)| < (|U|/2)·(s/2n)^k ) < 2·exp(−(|U|/8)·(s/2n)^k).

The E4 benchmark runs the random process directly and compares the empirical
shortfall probability against the lemma's bound, including the coupling-to-
independent-drops distribution ``D'`` the proof introduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.utils.bitset import bitset_from_indices, bitset_size, universe_mask
from repro.utils.rng import SeedLike, spawn_rng


@dataclass
class CoverageTrial:
    """Outcome of one draw of the Lemma 2.2 random process."""

    uncovered_count: int
    threshold: float
    below_threshold: bool


def lemma_2_2_threshold(universe_size: int, u_size: int, s: int, k: int) -> float:
    """The lemma's lower threshold (|U|/2)·(s/2n)^k."""
    if universe_size <= 0:
        raise ValueError("universe_size must be positive")
    return (u_size / 2.0) * (s / (2.0 * universe_size)) ** k


def lemma_2_2_bound(universe_size: int, u_size: int, s: int, k: int) -> float:
    """The lemma's failure-probability bound 2·exp(−(|U|/8)·(s/2n)^k)."""
    if universe_size <= 0:
        raise ValueError("universe_size must be positive")
    exponent = (u_size / 8.0) * (s / (2.0 * universe_size)) ** k
    return min(1.0, 2.0 * math.exp(-exponent))


def coverage_shortfall_trial(
    universe_size: int,
    u_size: int,
    s: int,
    k: int,
    seed: SeedLike = None,
    independent_drops: bool = False,
) -> CoverageTrial:
    """Run one trial of the Lemma 2.2 process.

    Parameters
    ----------
    universe_size, u_size, s, k:
        n, |U|, s and k of the lemma.  U is taken to be a fixed ``u_size``-
        subset (the lemma only requires independence from the S_i, which
        holds for any fixed U).
    independent_drops:
        When True, sample from the proof's auxiliary distribution ``D'``
        (every element dropped from each set independently with probability
        s/2n) instead of exact ``(n−s)``-subsets.
    """
    if not 0 < s <= universe_size:
        raise ValueError(f"s must lie in (0, n], got {s}")
    if not 0 <= u_size <= universe_size:
        raise ValueError(f"u_size must lie in [0, n], got {u_size}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    rng = spawn_rng(seed)
    # Masks throughout: an element stays uncovered by a drawn set exactly
    # when the set dropped it, so each draw intersects its dropped elements.
    uncovered = universe_mask(u_size)
    for _ in range(k):
        if independent_drops:
            drop_probability = s / (2.0 * universe_size)
            dropped = bitset_from_indices(
                [e for e in range(universe_size) if rng.bernoulli(drop_probability)]
            )
        else:
            dropped = rng.subset_mask(universe_size, s)
        uncovered &= dropped
        if not uncovered:
            break

    threshold = lemma_2_2_threshold(universe_size, u_size, s, k)
    count = bitset_size(uncovered)
    return CoverageTrial(
        uncovered_count=count,
        threshold=threshold,
        below_threshold=count < threshold,
    )


def estimate_uncovered_probability(
    universe_size: int,
    u_size: int,
    s: int,
    k: int,
    trials: int,
    seed: SeedLike = None,
    independent_drops: bool = False,
) -> float:
    """Empirical probability of the lemma's bad event over ``trials`` draws."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = spawn_rng(seed)
    failures = 0
    for _ in range(trials):
        trial = coverage_shortfall_trial(
            universe_size,
            u_size,
            s,
            k,
            seed=rng.spawn(),
            independent_drops=independent_drops,
        )
        if trial.below_threshold:
            failures += 1
    return failures / trials


def expected_uncovered(universe_size: int, u_size: int, s: int, k: int) -> float:
    """The heuristic expectation |U|·(s/n)^k discussed before the lemma."""
    if universe_size <= 0:
        raise ValueError("universe_size must be positive")
    return u_size * (s / universe_size) ** k


def run_sweep(
    universe_size: int,
    u_size: int,
    s: int,
    ks: Sequence[int],
    trials: int,
    seed: SeedLike = None,
) -> List[dict]:
    """Sweep k and report empirical vs predicted shortfall probabilities."""
    rng = spawn_rng(seed)
    rows = []
    for k in ks:
        empirical = estimate_uncovered_probability(
            universe_size, u_size, s, k, trials, seed=rng.spawn()
        )
        rows.append(
            {
                "k": k,
                "empirical_failure": empirical,
                "lemma_bound": lemma_2_2_bound(universe_size, u_size, s, k),
                "expected_uncovered": expected_uncovered(universe_size, u_size, s, k),
                "threshold": lemma_2_2_threshold(universe_size, u_size, s, k),
            }
        )
    return rows
