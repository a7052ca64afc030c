"""The set disjointness communication problem and its hard distribution.

``Disj_t``: Alice holds ``A ⊆ [t]``, Bob holds ``B ⊆ [t]``; the answer is
Yes iff ``A ∩ B = ∅``.

The hard distribution ``D_Disj`` of Section 2.2:

* start with ``A = B = [t]``;
* for every element independently, with probability 1/3 each: drop it from
  both sets, drop it from A only, or drop it from B only — after this step the
  sets are always disjoint;
* flip ``Z ∈ {0, 1}``; when ``Z = 1`` pick a uniformly random ``e*`` and put
  it in both sets (a single planted intersection).

``D_Disj^Y = (D_Disj | Z = 0)`` are the Yes (disjoint) instances and
``D_Disj^N = (D_Disj | Z = 1)`` the No instances.  Note the slightly confusing
paper convention: the set cover distribution ``D_SC`` embeds *No* instances
(single intersection) for the non-special indices.

Draw protocol: every gadget consumes a fixed float budget from its
:class:`~repro.utils.rng.RandomSource` — ``t`` uniforms for the element
rolls (``⌊3u⌋``: 0 drops the element from both sets, 1 keeps it in B only,
2 keeps it in A only) plus one uniform for the planted element of a No
instance (``⌊t·u⌋``).  Fixed budgets are what lets
:func:`sample_ddisj_no_bulk` draw whole gadget collections through one
:meth:`~repro.utils.rng.RandomSource.random_array` call; the loop path
applies the identical transforms to the identical floats, so batched and
sequential sampling are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from repro.utils.rng import SeedLike, batching_numpy, spawn_rng


@dataclass(frozen=True)
class DisjointnessInstance:
    """One Disj_t input pair plus provenance of the planted structure.

    Attributes
    ----------
    t:
        Universe size of the gadget.
    alice / bob:
        The two input sets A and B.
    z:
        The hidden bit of D_Disj: 0 means the instance was left disjoint
        (a Yes instance), 1 means an intersection element was planted (No).
        ``None`` for instances not drawn from D_Disj.
    planted_element:
        The planted common element when z == 1.
    """

    t: int
    alice: FrozenSet[int]
    bob: FrozenSet[int]
    z: Optional[int] = None
    planted_element: Optional[int] = None

    @property
    def intersection(self) -> FrozenSet[int]:
        """The intersection A ∩ B."""
        return self.alice & self.bob

    @property
    def is_disjoint(self) -> bool:
        """True iff A and B are disjoint (the Yes answer)."""
        return not (self.alice & self.bob)


def _sets_from_rolls(draws) -> tuple:
    """Apply the 1/3-1/3-1/3 roll transform ``⌊3u⌋`` to a float sequence."""
    numpy = batching_numpy()
    if numpy is not None and len(draws) >= 64:
        rolls = (numpy.asarray(draws) * 3).astype(numpy.int64)
        alice = set(numpy.nonzero(rolls == 2)[0].tolist())
        bob = set(numpy.nonzero(rolls == 1)[0].tolist())
        return alice, bob
    alice = set()
    bob = set()
    for element, draw in enumerate(draws):
        roll = int(draw * 3)
        if roll == 0:
            continue  # dropped from both
        if roll == 1:
            bob.add(element)  # dropped from A only
        else:
            alice.add(element)  # dropped from B only
    return alice, bob


def _sample_base(t: int, rng) -> tuple:
    """The element-wise dropping step (always ends disjoint): t float rolls."""
    return _sets_from_rolls(rng.random_batch(t))


def _planted_element(t: int, draw: float) -> int:
    """Map one uniform to the planted intersection element ``⌊t·u⌋``."""
    return min(int(draw * t), t - 1)


def gadget_membership_matrix(numpy, floats, t: int):
    """Vectorized D_Disj^N transform for a ``(rows, t+1)`` float matrix.

    The single bit-identity-critical implementation of the batched roll
    transform — ``⌊3u⌋`` rolls plus the ``⌊t·u⌋`` planted element forced
    into both sets — shared by :func:`sample_ddisj_no_bulk` and the D_SC
    pair sampler.  Returns ``(in_alice, in_bob, planted)``: two boolean
    ``(rows, t)`` membership matrices and the planted element per row.
    """
    rows = floats.shape[0]
    rolls = (floats[:, :t] * 3).astype(numpy.int64)
    planted = numpy.minimum((floats[:, t] * t).astype(numpy.int64), t - 1)
    in_alice = rolls == 2
    in_bob = rolls == 1
    row_index = numpy.arange(rows)
    in_alice[row_index, planted] = True
    in_bob[row_index, planted] = True
    return in_alice, in_bob, planted


def sample_ddisj(t: int, seed: SeedLike = None) -> DisjointnessInstance:
    """Sample (A, B, Z) from the full distribution D_Disj."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    rng = spawn_rng(seed)
    alice, bob = _sample_base(t, rng)
    z = rng.randint(0, 1)
    planted = None
    if z == 1:
        planted = _planted_element(t, rng.random())
        alice.add(planted)
        bob.add(planted)
    return DisjointnessInstance(
        t=t,
        alice=frozenset(alice),
        bob=frozenset(bob),
        z=z,
        planted_element=planted,
    )


def sample_ddisj_yes(t: int, seed: SeedLike = None) -> DisjointnessInstance:
    """Sample from D_Disj^Y = (D_Disj | Z = 0): always disjoint."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    rng = spawn_rng(seed)
    alice, bob = _sample_base(t, rng)
    return DisjointnessInstance(
        t=t, alice=frozenset(alice), bob=frozenset(bob), z=0, planted_element=None
    )


def sample_ddisj_no(t: int, seed: SeedLike = None) -> DisjointnessInstance:
    """Sample from D_Disj^N = (D_Disj | Z = 1): exactly one planted intersection."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    rng = spawn_rng(seed)
    alice, bob = _sample_base(t, rng)
    planted = _planted_element(t, rng.random())
    alice.add(planted)
    bob.add(planted)
    return DisjointnessInstance(
        t=t,
        alice=frozenset(alice),
        bob=frozenset(bob),
        z=1,
        planted_element=planted,
    )


def sample_ddisj_no_bulk(
    t: int, count: int, seed: SeedLike = None
) -> List[DisjointnessInstance]:
    """``count`` i.i.d. samples from D_Disj^N through one bulk float draw.

    Bit-identical to ``count`` sequential :func:`sample_ddisj_no` calls on
    the same source: the draw layout is gadget-major (``t`` rolls then the
    planted uniform, per gadget), exactly the order the sequential path
    consumes.  The whole budget comes from a single
    :meth:`~repro.utils.rng.RandomSource.random_array` call and the roll
    transform runs as one vectorized pass over the ``(count, t+1)`` matrix.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = spawn_rng(seed)
    numpy = batching_numpy()
    stride = t + 1
    draws = rng.random_array(count * stride) if numpy is not None else None
    if draws is None:
        return [sample_ddisj_no(t, seed=rng) for _ in range(count)]
    block = draws.reshape(count, stride)
    in_alice, in_bob, planted_all = gadget_membership_matrix(numpy, block, t)
    instances: List[DisjointnessInstance] = []
    for index in range(count):
        instances.append(
            DisjointnessInstance(
                t=t,
                alice=frozenset(numpy.nonzero(in_alice[index])[0].tolist()),
                bob=frozenset(numpy.nonzero(in_bob[index])[0].tolist()),
                z=1,
                planted_element=int(planted_all[index]),
            )
        )
    return instances


def enumerate_ddisj_support(t: int):
    """Yield ``(A, B, Z, probability)`` for every outcome of D_Disj.

    Exponential in t; used only for exact information-cost computations at
    tiny t in tests and the E12 benchmark.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    third = 1.0 / 3.0

    def recurse(element: int, alice: frozenset, bob: frozenset, probability: float):
        if element == t:
            yield alice, bob, probability
            return
        yield from recurse(element + 1, alice, bob, probability * third)
        yield from recurse(element + 1, alice, bob | {element}, probability * third)
        yield from recurse(element + 1, alice | {element}, bob, probability * third)

    for alice, bob, probability in recurse(0, frozenset(), frozenset(), 1.0):
        # Z = 0 branch: keep as is.
        yield frozenset(alice), frozenset(bob), 0, probability * 0.5
        # Z = 1 branch: plant each e* with probability 1/t.
        for planted in range(t):
            yield (
                frozenset(alice | {planted}),
                frozenset(bob | {planted}),
                1,
                probability * 0.5 / t,
            )
