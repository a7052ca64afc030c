"""The gap-hamming-distance (GHD) problem and the distributions of Section 4.1.

``GHD_t``: Alice holds ``A ⊆ [t]``, Bob holds ``B ⊆ [t]``; the answer is
Yes when the symmetric-difference size Δ(A, B) is at least ``t/2 + √t``, No
when it is at most ``t/2 − √t``, and unconstrained in between.

Distributions:

* ``U`` — A and B independent uniform subsets of [t].
* ``U(a, b)`` — U conditioned on |A| = a, |B| = b.
* ``D_GHD^Y`` / ``D_GHD^N`` — U(a, b) conditioned on the Yes / No gap event.
* ``D_GHD`` — the even mixture of the two.

Draw protocol: a fixed-size subset is the first ``a`` indices of the stable
argsort of ``t`` uniforms, so one rejection-sampling attempt consumes exactly
``2t`` floats (Alice's then Bob's).  Conditioned samples draw attempts in
fixed blocks of :data:`ATTEMPT_BLOCK` — a whole block's floats are consumed
at once and the attempts after the first accepted one are discarded — so the
batched path can draw each block through one bulk call and evaluate every
attempt as a vectorized argsort/XOR pass, while the loop path walks the
identical floats attempt by attempt.  Fixed budgets per attempt and per
block keep the two paths bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.exceptions import DistributionError
from repro.utils.rng import SeedLike, argsort_floats, batching_numpy, spawn_rng


@dataclass(frozen=True)
class GHDInstance:
    """One GHD_t input pair with its gap label when drawn from D_GHD."""

    t: int
    alice: FrozenSet[int]
    bob: FrozenSet[int]
    label: Optional[str] = None  # "Yes", "No", or None for unconditioned samples

    @property
    def distance(self) -> int:
        """Hamming distance Δ(A, B) = |A Δ B|."""
        return len(self.alice ^ self.bob)


def ghd_answer(instance: GHDInstance) -> str:
    """The GHD answer: "Yes", "No", or "*" inside the promise gap."""
    threshold = math.sqrt(instance.t)
    distance = instance.distance
    if distance >= instance.t / 2 + threshold:
        return "Yes"
    if distance <= instance.t / 2 - threshold:
        return "No"
    return "*"


def default_set_sizes(t: int) -> Tuple[int, int]:
    """The (a, b) = (t/2, t/2) choice used by the reproduction for U(a, b).

    The paper leaves a, b unspecified (they exist by an averaging argument in
    Claim B.1); half-size sets are the typical values under U and keep both
    gap events non-negligible.
    """
    half = max(1, t // 2)
    return half, half


#: Attempts per rejection-sampling block.  Part of the draw protocol: a
#: conditioned sample consumes whole blocks of ``ATTEMPT_BLOCK * 2t`` floats,
#: discarding the attempts after the accepted one, so block boundaries are
#: identical on the batched and loop paths.
ATTEMPT_BLOCK = 64


def _subset_from_floats(draws, size: int) -> FrozenSet[int]:
    """The first ``size`` indices of the stable argsort — a uniform subset."""
    return frozenset(argsort_floats(draws)[:size])


def _evaluate_block_loop(draws, t, a, b, want_yes, threshold):
    """Walk one attempt block sequentially; first attempt in the gap wins."""
    for attempt in range(ATTEMPT_BLOCK):
        base = attempt * 2 * t
        alice = _subset_from_floats(draws[base : base + t], a)
        bob = _subset_from_floats(draws[base + t : base + 2 * t], b)
        distance = len(alice ^ bob)
        if want_yes and distance >= t / 2 + threshold:
            return alice, bob
        if not want_yes and distance <= t / 2 - threshold:
            return alice, bob
    return None


def _prefix_membership(numpy, row_draws, size: int):
    """Boolean membership of each row's ``size`` smallest draws.

    The a-th smallest value (one ``partition`` pass) bounds the subset, which
    is an order of magnitude cheaper than a full stable argsort.  Rows where
    a duplicated boundary value breaks the count (a measure-zero tie event)
    are recomputed with the stable argsort, so membership always equals the
    loop path's argsort prefix.
    """
    rows, t = row_draws.shape
    if size <= 0:
        return numpy.zeros((rows, t), dtype=bool)
    if size >= t:
        return numpy.ones((rows, t), dtype=bool)
    boundary = numpy.partition(row_draws, size - 1, axis=1)[:, size - 1 : size]
    member = row_draws <= boundary
    bad_rows = numpy.nonzero(member.sum(axis=1) != size)[0]
    for row in bad_rows:  # pragma: no cover - measure-zero boundary ties
        member[row] = False
        order = numpy.argsort(row_draws[row], kind="stable")
        member[row, order[:size]] = True
    return member


def _evaluate_block_vectorized(numpy, draws, t, a, b, want_yes, threshold):
    """Evaluate one attempt block as a partition/XOR pass; exact winner row."""
    arr = draws if hasattr(draws, "reshape") else numpy.asarray(draws)
    arr = arr.reshape(ATTEMPT_BLOCK, 2, t)
    member_a = _prefix_membership(numpy, arr[:, 0, :], a)
    member_b = _prefix_membership(numpy, arr[:, 1, :], b)
    distances = (member_a ^ member_b).sum(axis=1)
    if want_yes:
        accepted = numpy.nonzero(distances >= t / 2 + threshold)[0]
    else:
        accepted = numpy.nonzero(distances <= t / 2 - threshold)[0]
    if len(accepted) == 0:
        return None
    winner = int(accepted[0])
    # Materialise the winning subsets through the loop-path transform so the
    # returned instance is identical draw for draw.
    alice = _subset_from_floats(arr[winner, 0, :].tolist(), a)
    bob = _subset_from_floats(arr[winner, 1, :].tolist(), b)
    return alice, bob


def sample_dghd(
    t: int,
    a: Optional[int] = None,
    b: Optional[int] = None,
    seed: SeedLike = None,
    max_attempts: int = 20000,
) -> GHDInstance:
    """Sample from D_GHD = ½·D_GHD^Y + ½·D_GHD^N."""
    rng = spawn_rng(seed)
    if rng.bernoulli(0.5):
        return sample_dghd_yes(t, a, b, seed=rng.spawn(), max_attempts=max_attempts)
    return sample_dghd_no(t, a, b, seed=rng.spawn(), max_attempts=max_attempts)


def sample_dghd_yes(
    t: int,
    a: Optional[int] = None,
    b: Optional[int] = None,
    seed: SeedLike = None,
    max_attempts: int = 20000,
) -> GHDInstance:
    """Sample from D_GHD^Y: fixed sizes, Δ(A, B) ≥ t/2 + √t (rejection sampling)."""
    return _sample_conditioned(t, a, b, want_yes=True, seed=seed, max_attempts=max_attempts)


def sample_dghd_no(
    t: int,
    a: Optional[int] = None,
    b: Optional[int] = None,
    seed: SeedLike = None,
    max_attempts: int = 20000,
) -> GHDInstance:
    """Sample from D_GHD^N: fixed sizes, Δ(A, B) ≤ t/2 − √t (rejection sampling)."""
    return _sample_conditioned(t, a, b, want_yes=False, seed=seed, max_attempts=max_attempts)


def _sample_conditioned(
    t: int,
    a: Optional[int],
    b: Optional[int],
    want_yes: bool,
    seed: SeedLike,
    max_attempts: int,
) -> GHDInstance:
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if a is None or b is None:
        a_default, b_default = default_set_sizes(t)
        a = a if a is not None else a_default
        b = b if b is not None else b_default
    if not 0 <= a <= t or not 0 <= b <= t:
        raise DistributionError(f"set sizes must lie in [0, {t}], got a={a}, b={b}")
    rng = spawn_rng(seed)
    threshold = math.sqrt(t)
    numpy = batching_numpy()
    attempts = 0
    while attempts < max_attempts:
        block_floats = 2 * t * ATTEMPT_BLOCK
        draws = rng.random_array(block_floats) if numpy is not None else None
        if draws is None:
            draws = rng.random_batch(block_floats)
        attempts += ATTEMPT_BLOCK
        if numpy is not None:
            found = _evaluate_block_vectorized(numpy, draws, t, a, b, want_yes, threshold)
        else:
            found = _evaluate_block_loop(draws, t, a, b, want_yes, threshold)
        if found is not None:
            alice, bob = found
            return GHDInstance(
                t=t, alice=alice, bob=bob, label="Yes" if want_yes else "No"
            )
    raise DistributionError(
        f"failed to sample a {'Yes' if want_yes else 'No'} GHD instance with "
        f"t={t}, a={a}, b={b} after {attempts} attempts"
    )
