"""Element sampling (Lemma 3.12 of the paper).

Lemma 3.12: let ``0 < ρ < 1`` and let S be m subsets of [n] with
``opt(S) ≤ k``.  If ``U_smpl`` keeps each element independently with
probability ``p ≥ 16 · k · log m / (ρ · n)``, then with probability
``1 − 1/m²`` every collection of k sets covering ``U_smpl`` entirely also
covers at least ``(1 − ρ) · n`` elements of [n].

This module provides the sampling-rate formula and the sampler itself; the
streaming algorithm applies it to the *currently uncovered* universe in each
of its α iterations with ``ρ = n^{-1/α}``.
"""

from __future__ import annotations

import itertools
import math
from typing import FrozenSet, Iterable

from repro.utils.bitset import bitset_to_set, mask_from_bools
from repro.utils.rng import RandomSource, SeedLike, batching_numpy, spawn_rng


def sampling_probability(
    universe_size: int,
    num_sets: int,
    cover_size_bound: int,
    rho: float,
    constant: float = 16.0,
) -> float:
    """The Lemma 3.12 sampling rate ``min(1, c · k · log m / (ρ · n))``.

    Parameters
    ----------
    universe_size:
        n, the size of the (sub)universe being sampled.
    num_sets:
        m, the number of sets in the stream (enters through the union bound).
    cover_size_bound:
        k, the assumed upper bound on the optimal cover size (``õpt``).
    rho:
        Target residual fraction: covers of the sample miss at most ρ·n
        elements of the full universe.
    constant:
        The constant 16 from the lemma; exposed so the E3 ablation can sweep it.
    """
    if universe_size <= 0:
        return 1.0
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if cover_size_bound <= 0:
        raise ValueError(f"cover_size_bound must be positive, got {cover_size_bound}")
    if num_sets < 2:
        num_sets = 2  # log m must be positive for the bound to make sense
    probability = constant * cover_size_bound * math.log(num_sets) / (rho * universe_size)
    return min(1.0, probability)


def element_sample(
    elements: Iterable[int],
    probability: float,
    seed: SeedLike = None,
) -> FrozenSet[int]:
    """Keep each element independently with the given probability.

    The per-element Bernoulli draws come from ``seed``'s stream in iteration
    order of ``elements``, batched through
    :meth:`~repro.utils.rng.RandomSource.random_array` (or
    :meth:`~repro.utils.rng.RandomSource.random_batch` on the loop path) —
    bit-identical to one sequential ``bernoulli`` call per element (same
    kept set, same stream advancement), just without the per-element
    Python dispatch.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {probability}")
    rng: RandomSource = spawn_rng(seed)
    if probability >= 1.0:
        # The sequential loop short-circuits the draw at p = 1, so the batch
        # path must not consume from the stream either.
        return frozenset(elements)
    order = list(elements)
    numpy = batching_numpy()
    draws = rng.random_array(len(order)) if numpy is not None else None
    if draws is not None:
        return frozenset(itertools.compress(order, (draws < probability).tolist()))
    draws = rng.random_batch(len(order))
    return frozenset(
        element for element, draw in zip(order, draws) if draw < probability
    )


def element_sample_mask(
    mask: int,
    probability: float,
    seed: SeedLike = None,
) -> int:
    """Mask-in/mask-out variant of :func:`element_sample`.

    Takes the candidate universe as a bitset and returns the sampled subset
    as a bitset, skipping the frozenset round trip at the call site (this is
    the form Algorithm 1's per-round sampling uses).  Output and stream
    consumption are identical to
    ``element_sample(bitset_to_set(mask), probability, seed)`` — the draws
    are deliberately made in that set's iteration order, not ascending bit
    order, so existing seeded runs reproduce byte for byte.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {probability}")
    rng: RandomSource = spawn_rng(seed)
    if probability >= 1.0:
        return mask
    order = list(bitset_to_set(mask))
    numpy = batching_numpy()
    draws = rng.random_array(len(order)) if numpy is not None else None
    if draws is not None:
        member = numpy.zeros(mask.bit_length(), dtype=bool)
        member[numpy.asarray(order)[draws < probability]] = True
        return mask_from_bools(member)
    draws = rng.random_batch(len(order))
    sampled = 0
    for element, draw in zip(order, draws):
        if draw < probability:
            sampled |= 1 << element
    return sampled
