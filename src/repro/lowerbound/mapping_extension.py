"""Mapping-extensions (Definition 3 of the paper).

A mapping-extension of ``[t]`` to ``[n]`` is a function ``f : [t] → 2^[n]``
assigning each ``i ∈ [t]`` a block of ``n/t`` *unique* elements of ``[n]``
(so the blocks partition a size-``t·(n/t)`` subset of ``[n]``; the paper takes
``t | n`` so the blocks partition all of ``[n]``).  For ``A ⊆ [t]``,
``f(A) := ∪_{i∈A} f(i)``.

The hard distribution ``D_SC`` uses a uniformly random mapping-extension per
embedded disjointness instance to blow the ``[t]`` gadget up to the ``[n]``
universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple

from repro.exceptions import DistributionError
from repro.utils.bitset import bitset_from_iterable
from repro.utils.rng import SeedLike, argsort_floats, batching_numpy, spawn_rng


@dataclass(frozen=True)
class MappingExtension:
    """An explicit mapping-extension ``f : [t] → 2^[n]`` with disjoint blocks."""

    universe_size: int
    blocks: Tuple[FrozenSet[int], ...]

    def __post_init__(self) -> None:
        seen: set = set()
        for index, block in enumerate(self.blocks):
            if not block:
                raise DistributionError(f"block {index} of a mapping-extension is empty")
            overlap = seen & block
            if overlap:
                raise DistributionError(
                    f"blocks are not disjoint: element(s) {sorted(overlap)[:5]} repeat"
                )
            for element in block:
                if not 0 <= element < self.universe_size:
                    raise DistributionError(
                        f"element {element} outside the universe [0, {self.universe_size})"
                    )
            seen |= block

    @property
    def t(self) -> int:
        """Domain size t of the mapping."""
        return len(self.blocks)

    @property
    def block_size(self) -> int:
        """Number of elements per block (n/t in the paper)."""
        return len(self.blocks[0]) if self.blocks else 0

    def image(self, i: int) -> FrozenSet[int]:
        """The block f(i)."""
        return self.blocks[i]

    def extend(self, subset: Iterable[int]) -> FrozenSet[int]:
        """f(A) = union of the blocks of the indices in A."""
        result: set = set()
        for i in subset:
            result |= self.blocks[i]
        return frozenset(result)

    def extend_mask(self, subset: Iterable[int]) -> int:
        """f(A) as a bitset mask over the universe."""
        return bitset_from_iterable(self.extend(subset))


def block_sizes(universe_size: int, t: int) -> List[int]:
    """Block sizes of a mapping-extension of [t] to [n].

    When ``t`` does not divide ``n`` the first ``n mod t`` blocks receive one
    extra element, so the blocks always partition the whole universe (the
    paper's asymptotic setting has t | n).
    """
    base_size = universe_size // t
    remainder = universe_size % t
    return [base_size + (1 if index < remainder else 0) for index in range(t)]


def blocks_from_permutation(
    permutation, universe_size: int, t: int
) -> Tuple[FrozenSet[int], ...]:
    """Cut a universe permutation into the t consecutive mapping blocks."""
    blocks: List[FrozenSet[int]] = []
    cursor = 0
    for size in block_sizes(universe_size, t):
        chunk = permutation[cursor : cursor + size]
        blocks.append(frozenset(chunk.tolist() if hasattr(chunk, "tolist") else chunk))
        cursor += size
    return tuple(blocks)


def blocks_from_block_ids(block_ids, t: int) -> Tuple[FrozenSet[int], ...]:
    """Group universe elements by their block id into the t mapping blocks."""
    members: List[List[int]] = [[] for _ in range(t)]
    sequence = block_ids.tolist() if hasattr(block_ids, "tolist") else block_ids
    for element, block_index in enumerate(sequence):
        members[block_index].append(element)
    return tuple(frozenset(block) for block in members)


def mapping_permutation(universe_size: int, rng) -> "list":
    """The mapping-extension draw protocol: argsort of ``n`` uniforms.

    Consumes exactly ``universe_size`` floats from ``rng``; the stable
    argsort of i.i.d. uniforms is a uniformly random permutation, and the
    fixed budget is what lets the D_SC sampler draw every pair's mapping
    through one bulk :meth:`~repro.utils.rng.RandomSource.random_array` call,
    bit-identical to this sequential path.
    """
    numpy = batching_numpy()
    draws = rng.random_array(universe_size) if numpy is not None else None
    if draws is None:
        draws = rng.random_batch(universe_size)
    if numpy is not None and universe_size >= 64:
        return numpy.argsort(numpy.asarray(draws), kind="stable").tolist()
    return argsort_floats(draws)


def random_mapping_extension(
    universe_size: int, t: int, seed: SeedLike = None
) -> MappingExtension:
    """Sample a uniformly random mapping-extension of [t] to [n].

    Requires ``t ≤ n``.  Consumes ``n`` uniforms (see
    :func:`mapping_permutation`); block sizes follow :func:`block_sizes`.
    """
    if t < 1:
        raise DistributionError(f"t must be >= 1, got {t}")
    if t > universe_size:
        raise DistributionError(
            f"t={t} cannot exceed the universe size {universe_size}"
        )
    rng = spawn_rng(seed)
    permutation = mapping_permutation(universe_size, rng)
    return MappingExtension(
        universe_size=universe_size,
        blocks=blocks_from_permutation(permutation, universe_size, t),
    )
