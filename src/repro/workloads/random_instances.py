"""Random set system generators with controllable structure.

Instance construction is batched: Bernoulli-family generators, the
planted sets' overlaps included, draw their whole float budget through
:meth:`~repro.utils.rng.RandomSource.random_batch` /
:meth:`~repro.utils.rng.RandomSource.random_array` (decoded from MT19937
words, exactly: the draws and the post-call stream position are
bit-identical to the historical per-element ``bernoulli`` loops) and
assemble packed bitset masks in one array operation per set system instead
of per-element list appends.  Fixed-size subsets (planted decoys,
``set_size=`` systems) are drawn ``count`` at a time through
:meth:`~repro.utils.rng.RandomSource.subset_masks`, which equals ``count``
:meth:`~repro.utils.rng.RandomSource.subset_mask` calls mask for mask and
leaves the stream where they would, replaying either branch of CPython's
``random.sample`` in bulk above its crossover.  Every
generator feeds :meth:`SetSystem.from_masks`, so no intermediate element
lists are materialised; coverability patches go through
:meth:`SetSystem.with_patched_mask`.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple

from repro.setcover.instance import SetCoverInstance, SetSystem
from repro.utils.bitset import bitset_from_indices, masks_from_bool_rows
from repro.utils.rng import RandomSource, SeedLike, batching_numpy, spawn_rng


#: Sets per draw chunk in :func:`bernoulli_masks`: bounds the transient float
#: array at ``chunk × n`` doubles (the same convention as the NumPy kernel's
#: row chunking).
_BERNOULLI_CHUNK_ROWS = 1024


def bernoulli_masks(
    rng: RandomSource, num_sets: int, universe_size: int, probability: float
) -> List[int]:
    """``num_sets`` i.i.d. Bernoulli(``probability``) subsets of ``[n]`` as masks.

    Bit-identical to building each set with one ``rng.bernoulli`` call per
    element (sets in order, elements ascending within a set): the draws come
    from the same stream, batched — vectorized compare-and-pack in bounded
    row chunks when NumPy is available, a plain loop otherwise.  Chunking
    does not change the stream (draws are consumed sequentially either way).
    """
    masks: List[int] = []
    for start in range(0, num_sets, _BERNOULLI_CHUNK_ROWS):
        rows = min(_BERNOULLI_CHUNK_ROWS, num_sets - start)
        count = rows * universe_size
        draws = rng.random_array(count)
        if draws is not None:
            masks.extend(
                masks_from_bool_rows((draws < probability).reshape(rows, universe_size))
            )
            continue
        batch = rng.random_batch(count)
        for row in range(rows):
            base = row * universe_size
            masks.append(
                bitset_from_indices(
                    [
                        element
                        for element in range(universe_size)
                        if batch[base + element] < probability
                    ]
                )
            )
    return masks


def random_set_system(
    universe_size: int,
    num_sets: int,
    set_size: Optional[int] = None,
    density: Optional[float] = None,
    seed: SeedLike = None,
) -> SetSystem:
    """Uniformly random sets, either of fixed size or i.i.d. element density.

    Exactly one of ``set_size`` (each set is a uniform ``set_size``-subset) or
    ``density`` (each element joins each set independently with this
    probability) must be provided; when neither is, a density of
    ``ln(n)/n · 4`` is used so random instances are coverable w.h.p.
    """
    rng = spawn_rng(seed)
    if set_size is not None and density is not None:
        raise ValueError("provide at most one of set_size and density")
    if set_size is not None:
        if not 0 <= set_size <= universe_size:
            raise ValueError(
                f"set_size must lie in [0, {universe_size}], got {set_size}"
            )
        masks = rng.subset_masks(universe_size, set_size, num_sets)
        return SetSystem.from_masks(universe_size, masks)
    if density is None:
        density = min(1.0, 4.0 * math.log(max(universe_size, 2)) / max(universe_size, 1))
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    return SetSystem.from_masks(
        universe_size, bernoulli_masks(rng, num_sets, universe_size, density)
    )


def random_instance(
    universe_size: int,
    num_sets: int,
    density: Optional[float] = None,
    seed: SeedLike = None,
) -> SetCoverInstance:
    """A coverable random-density instance (re-draws until coverable)."""
    rng = spawn_rng(seed)
    for _attempt in range(32):
        system = random_set_system(
            universe_size, num_sets, density=density, seed=rng.spawn()
        )
        if system.is_coverable():
            return SetCoverInstance(system, metadata={"kind": "random"})
    # Force coverability by adding the missing elements to the last set.
    missing = system.uncovered_mask(range(system.num_sets))
    system = system.with_patched_mask(system.num_sets - 1, missing)
    return SetCoverInstance(system, metadata={"kind": "random", "patched": True})


def _planted_masks(
    rng: RandomSource, universe_size: int, bounds: Sequence[Tuple[int, int]], overlap: float
) -> List[int]:
    """One planted set per block ``[start, end)``: the block plus an overlap.

    Each element outside a block joins its set with probability
    ``overlap``, one float per element in ascending order, block after
    block, so the (blocks − 1)·n floats are consecutive draws of one batch.
    With NumPy batching they fill a boolean matrix outside each block, in
    row-major order; the loop path reads the same floats from one
    :meth:`~repro.utils.rng.RandomSource.random_batch`.
    """
    count = (len(bounds) - 1) * universe_size
    numpy = batching_numpy()
    draws = rng.random_array(count) if numpy is not None else None
    if draws is not None:
        member = numpy.zeros((len(bounds), universe_size), dtype=bool)
        for row, (start, end) in enumerate(bounds):
            member[row, start:end] = True
        member[~member] = draws < overlap
        return masks_from_bool_rows(member)
    floats = iter(rng.random_batch(count))
    masks: List[int] = []
    for start, end in bounds:
        outside = itertools.chain(range(start), range(end, universe_size))
        extra = [element for element in outside if next(floats) < overlap]
        masks.append(((1 << end) - (1 << start)) | bitset_from_indices(extra))
    return masks


def plant_cover_instance(
    universe_size: int,
    num_sets: int,
    cover_size: int,
    decoy_set_size: Optional[int] = None,
    overlap: float = 0.1,
    seed: SeedLike = None,
) -> SetCoverInstance:
    """Instance with a planted cover of ``cover_size`` sets (known optimum).

    The universe is split into ``cover_size`` nearly equal blocks; one planted
    set per block covers that block (plus a small random ``overlap`` fraction
    of other elements).  The remaining ``num_sets - cover_size`` decoy sets are
    uniform random subsets small enough that no ``cover_size - 1`` sets can
    cover the universe, so ``opt == cover_size`` exactly.

    The planted sets are scattered at random positions of the stream order.
    """
    if cover_size < 1:
        raise ValueError(f"cover_size must be >= 1, got {cover_size}")
    if cover_size > num_sets:
        raise ValueError("cover_size cannot exceed num_sets")
    if cover_size > universe_size:
        raise ValueError("cover_size cannot exceed universe_size")
    rng = spawn_rng(seed)

    block_size = universe_size // cover_size
    starts = [index * block_size for index in range(cover_size)]
    bounds = list(zip(starts, starts[1:] + [universe_size]))
    planted_masks = _planted_masks(rng, universe_size, bounds, overlap)

    if decoy_set_size is None:
        # Decoys strictly smaller than a block so they cannot replace a
        # planted set and opt stays exactly cover_size.
        decoy_set_size = max(1, block_size // 2)
    decoy_masks = rng.subset_masks(
        universe_size, min(decoy_set_size, universe_size), num_sets - cover_size
    )

    all_masks = planted_masks + decoy_masks
    order = rng.permutation(len(all_masks))
    shuffled = [all_masks[i] for i in order]
    planted_positions = sorted(order.index(i) for i in range(cover_size))
    system = SetSystem.from_masks(universe_size, shuffled)
    return SetCoverInstance(
        system,
        planted_opt=cover_size,
        metadata={
            "kind": "planted",
            "planted_positions": planted_positions,
            "decoy_set_size": decoy_set_size,
        },
    )


def zipfian_instance(
    universe_size: int,
    num_sets: int,
    set_size: int,
    skew: float = 1.1,
    seed: SeedLike = None,
) -> SetCoverInstance:
    """Sets drawn with Zipfian element popularity (heavy-tailed coverage).

    Models the web-host / document-coverage workloads of the paper's
    introduction: a few popular elements appear in most sets while the tail is
    rare, which is the regime where streaming set cover is hard in practice
    (rare elements force many passes or large memory).

    The rejection loop is inherently sequential (each draw decides whether
    another is needed), so this generator keeps the per-draw path; only the
    coverability patch is routed through the explicit constructor.
    """
    if skew <= 0:
        raise ValueError(f"skew must be positive, got {skew}")
    rng = spawn_rng(seed)
    weights = [1.0 / (rank + 1) ** skew for rank in range(universe_size)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    def draw_element() -> int:
        target = rng.random()
        low, high = 0, universe_size - 1
        while low < high:
            mid = (low + high) // 2
            if cumulative[mid] < target:
                low = mid + 1
            else:
                high = mid
        return low

    masks: List[int] = []
    for _ in range(num_sets):
        chosen = set()
        attempts = 0
        while len(chosen) < set_size and attempts < 50 * set_size:
            chosen.add(draw_element())
            attempts += 1
        masks.append(bitset_from_indices(chosen))
    system = SetSystem.from_masks(universe_size, masks)
    # Patch coverability (rare tail elements may be missed entirely).
    missing = system.uncovered_mask(range(system.num_sets))
    if missing:
        system = system.with_patched_mask(rng.randrange(num_sets), missing)
    return SetCoverInstance(system, metadata={"kind": "zipf", "skew": skew})


def disjoint_blocks_instance(
    universe_size: int, num_blocks: int, seed: SeedLike = None
) -> SetCoverInstance:
    """A partition of the universe into ``num_blocks`` disjoint sets.

    The simplest instance with ``opt == num_blocks``; useful as a sanity check
    because every feasible cover must take every block.
    """
    if num_blocks < 1 or num_blocks > universe_size:
        raise ValueError("num_blocks must lie in [1, universe_size]")
    rng = spawn_rng(seed)
    permutation = rng.permutation(universe_size)
    blocks: List[List[int]] = [[] for _ in range(num_blocks)]
    for position, element in enumerate(permutation):
        blocks[position % num_blocks].append(element)
    system = SetSystem.from_masks(
        universe_size, [bitset_from_indices(block) for block in blocks]
    )
    return SetCoverInstance(
        system, planted_opt=num_blocks, metadata={"kind": "disjoint-blocks"}
    )
