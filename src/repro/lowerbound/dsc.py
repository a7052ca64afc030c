"""The hard set cover distribution ``D_SC`` (Section 3.1) and ``D_SC^rnd``.

For parameters (n, m, α) and ``t ≈ (n / log m)^{1/α}``:

* for every ``i ∈ [m]`` draw a disjointness pair ``(A_i, B_i) ~ D_Disj^N``
  (i.e. with a single planted intersection) and an independent random
  mapping-extension ``f_i``; set ``S_i := [n] \\ f_i(A_i)`` and
  ``T_i := [n] \\ f_i(B_i)``;
* flip ``θ``; when ``θ = 1`` pick ``i* ∈ [m]`` and resample
  ``(A_{i*}, B_{i*}) ~ D_Disj^Y`` (disjoint), so ``S_{i*} ∪ T_{i*} = [n]``
  and the optimal cover has size 2; when ``θ = 0`` every pair misses the
  block of its planted intersection element, and Lemma 3.2 shows
  ``opt > 2α`` w.h.p.
* Alice receives ``S = {S_i}`` and Bob receives ``T = {T_i}``.

``D_SC^rnd`` (Section 3.3) draws the same collections and then assigns each of
the 2m sets to Alice or Bob independently with probability 1/2 — the
random-partition form used to extend the lower bound to random arrival
streams.

Draw protocol: each pair consumes a fixed float budget from the sampler's
stream — ``t`` gadget rolls, one planted uniform, then ``n`` mapping uniforms
(argsort permutation; see :mod:`repro.lowerbound.mapping_extension`) — in
pair order, followed by the θ flip and, when θ = 1, the special index and
``t`` resample rolls.  The fixed layout lets the sampler draw whole pair
blocks through one :meth:`~repro.utils.rng.RandomSource.random_array` call
(floats decoded exactly from MT19937 words) and assemble all 2m masks via
packed-bit matrix operations, while the sequential loop path applies the
identical transforms to the identical floats — batched and loop sampling
are bit-identical.  Mapping-extension provenance is materialised lazily: the
sampler keeps the permutations and builds :class:`MappingExtension` objects
only when ``instance.mappings`` is actually inspected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.communication.protocols.setcover_protocol import SetCoverInput
from repro.exceptions import DistributionError
from repro.lowerbound.mapping_extension import (
    MappingExtension,
    block_sizes,
    blocks_from_block_ids,
    mapping_permutation,
)
from repro.problems.disjointness import (
    DisjointnessInstance,
    gadget_membership_matrix,
    sample_ddisj_no,
    sample_ddisj_yes,
)
from repro.setcover.instance import SetSystem
from repro.telemetry import metrics
from repro.telemetry.spans import span
from repro.utils.bitset import bitset_from_indices, masks_from_bool_rows, universe_mask
from repro.utils.rng import SeedLike, batching_numpy, spawn_rng

#: Bound on the transient float matrix drawn per batched chunk (doubles), the
#: same convention as the generators' row chunking; chunk boundaries never
#: change the stream (draws are consumed sequentially either way).
_PAIR_CHUNK_FLOATS = 1 << 20


@dataclass(frozen=True)
class DSCParameters:
    """Parameters of the D_SC sampler.

    ``t`` defaults to the unscaled ``(n / ln m)^{1/α}`` (the paper's 2^{-15}
    constant only matters asymptotically); it is clamped to ``[1, n]``.
    """

    universe_size: int
    num_pairs: int  # m in the paper; the instance has 2m sets
    alpha: int
    t: Optional[int] = None

    def resolved_t(self) -> int:
        """The gadget size t actually used by the sampler."""
        if self.t is not None:
            if not 1 <= self.t <= self.universe_size:
                raise DistributionError(
                    f"t must lie in [1, {self.universe_size}], got {self.t}"
                )
            return self.t
        log_m = math.log(max(self.num_pairs, 2))
        value = (self.universe_size / log_m) ** (1.0 / self.alpha)
        return max(1, min(self.universe_size, int(value)))

    def __post_init__(self) -> None:
        if self.universe_size < 2:
            raise DistributionError("universe_size must be at least 2")
        if self.num_pairs < 1:
            raise DistributionError("num_pairs must be at least 1")
        if self.alpha < 1:
            raise DistributionError("alpha must be at least 1")


@dataclass
class DSCInstance:
    """One sample from D_SC with full provenance for verification.

    ``alice_sets[i]`` is the mask of ``S_i`` and ``bob_sets[i]`` of ``T_i``.
    Global set indices: ``S_i`` is index ``i`` and ``T_i`` is index ``m + i``.
    """

    parameters: DSCParameters
    theta: int
    special_index: Optional[int]
    disjointness: List[DisjointnessInstance]
    mappings: Sequence[MappingExtension]
    alice_sets: List[int] = field(default_factory=list)
    bob_sets: List[int] = field(default_factory=list)

    @property
    def universe_size(self) -> int:
        """Universe size n."""
        return self.parameters.universe_size

    @property
    def num_pairs(self) -> int:
        """Number of (S_i, T_i) pairs m."""
        return self.parameters.num_pairs

    def set_system(self) -> SetSystem:
        """All 2m sets as one system: S_0..S_{m-1}, T_0..T_{m-1}."""
        names = [f"S{i}" for i in range(self.num_pairs)] + [
            f"T{i}" for i in range(self.num_pairs)
        ]
        return SetSystem.from_masks(
            self.universe_size, self.alice_sets + self.bob_sets, names
        )

    def communication_inputs(self) -> Tuple[SetCoverInput, SetCoverInput]:
        """The paper's fixed partition: Alice gets all S_i, Bob all T_i."""
        alice = SetCoverInput(
            self.universe_size,
            {i: mask for i, mask in enumerate(self.alice_sets)},
        )
        bob = SetCoverInput(
            self.universe_size,
            {self.num_pairs + i: mask for i, mask in enumerate(self.bob_sets)},
        )
        return alice, bob

    def pair_union_mask(self, index: int) -> int:
        """S_i ∪ T_i as a mask (equals [n] minus f_i(A_i ∩ B_i))."""
        return self.alice_sets[index] | self.bob_sets[index]

    @property
    def planted_opt(self) -> Optional[int]:
        """2 when θ = 1 (the special pair covers [n]); unknown otherwise."""
        return 2 if self.theta == 1 else None


class LazyMappings(Sequence):
    """Mapping-extension provenance materialised on demand.

    The batched sampler keeps only each pair's universe permutation; the
    corresponding :class:`MappingExtension` (frozenset blocks plus the
    constructor's disjointness validation) is built — and cached — the first
    time an index is inspected.  Compares equal to any sequence of the same
    materialised mappings, so instances from the batched and loop paths
    compare equal field for field.
    """

    def __init__(self, universe_size: int, t: int, block_id_rows: Sequence) -> None:
        self._universe_size = universe_size
        self._t = t
        self._block_id_rows = block_id_rows
        self._cache: Dict[int, MappingExtension] = {}

    def __len__(self) -> int:
        return len(self._block_id_rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        if index not in self._cache:
            self._cache[index] = MappingExtension(
                universe_size=self._universe_size,
                blocks=blocks_from_block_ids(self._block_id_rows[index], self._t),
            )
        return self._cache[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (LazyMappings, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LazyMappings(count={len(self)}, materialised={len(self._cache)})"


def _sample_pairs_loop(rng, n: int, m: int, t: int):
    """The sequential pair loop: per-draw transforms of the same float stream."""
    full = universe_mask(n)
    disjointness: List[DisjointnessInstance] = []
    block_id_rows: List[List[int]] = []
    alice_sets: List[int] = []
    bob_sets: List[int] = []
    sizes = block_sizes(n, t)
    for _ in range(m):
        pair = sample_ddisj_no(t, seed=rng)
        permutation = mapping_permutation(n, rng)
        block_of_element = [0] * n
        cursor = 0
        for block_index, size in enumerate(sizes):
            for position in range(cursor, cursor + size):
                block_of_element[permutation[position]] = block_index
            cursor += size
        in_alice = [False] * t
        in_bob = [False] * t
        for element in pair.alice:
            in_alice[element] = True
        for element in pair.bob:
            in_bob[element] = True
        alice_elements = [
            element for element in range(n) if not in_alice[block_of_element[element]]
        ]
        bob_elements = [
            element for element in range(n) if not in_bob[block_of_element[element]]
        ]
        disjointness.append(pair)
        block_id_rows.append(block_of_element)
        alice_sets.append(full & bitset_from_indices(alice_elements))
        bob_sets.append(full & bitset_from_indices(bob_elements))
    return disjointness, block_id_rows, alice_sets, bob_sets


def _block_ids_batched(numpy, mapping_floats, sizes):
    """Per-element block ids for a chunk of mapping draws, vectorized.

    A mapping draw assigns element ``e`` the block whose rank range contains
    ``rank(e)`` in the stable ascending order of the row's floats.  Ranks
    themselves are never needed — only which of the ``t-1`` boundary ranks an
    element's draw clears — so each row takes an O(n) ``partition`` for the
    boundary values plus one flat ``searchsorted`` (rows offset into disjoint
    value ranges) instead of a full argsort.  Rows where a boundary value is
    duplicated (ties straddling a block boundary, a measure-zero event) are
    detected by their block-size histogram and recomputed with the stable
    argsort, so the result always equals the loop path's slicing.
    """
    rows, n = mapping_floats.shape
    t = len(sizes)
    if t == 1:
        return numpy.zeros((rows, n), dtype=numpy.int64)
    boundaries = numpy.cumsum(sizes[:-1])
    partitioned = numpy.partition(mapping_floats, boundaries, axis=1)
    boundary_values = partitioned[:, boundaries]
    if t <= 16:
        # Few boundaries: a broadcast compare-and-sum beats searchsorted.
        block_ids = (
            mapping_floats[:, None, :] >= boundary_values[:, :, None]
        ).sum(axis=1, dtype=numpy.int64)
    else:
        row_offsets = 2.0 * numpy.arange(rows)[:, None]
        flat_boundaries = (boundary_values + row_offsets).ravel()
        flat_draws = (mapping_floats + row_offsets).ravel()
        block_ids = (
            numpy.searchsorted(flat_boundaries, flat_draws, side="right").reshape(rows, n)
            - numpy.arange(rows)[:, None] * (t - 1)
        )
    counts = numpy.bincount(
        (block_ids + numpy.arange(rows)[:, None] * t).ravel(), minlength=rows * t
    ).reshape(rows, t)
    expected = numpy.asarray(sizes)
    bad_rows = numpy.nonzero((counts != expected[None, :]).any(axis=1))[0]
    if len(bad_rows):  # pragma: no cover - measure-zero boundary ties
        block_of_position = numpy.repeat(numpy.arange(t), sizes)
        for row in bad_rows:
            order = numpy.argsort(mapping_floats[row], kind="stable")
            block_ids[row, order] = block_of_position
    return block_ids


def _sample_pairs_batched(numpy, rng, n: int, m: int, t: int):
    """Bulk pair sampling: one float draw + vectorized masks per pair chunk."""
    stride = t + 1 + n
    chunk_pairs = max(1, _PAIR_CHUNK_FLOATS // stride)
    sizes = block_sizes(n, t)
    disjointness: List[DisjointnessInstance] = []
    block_id_rows: List = []
    alice_sets: List[int] = []
    bob_sets: List[int] = []
    for start in range(0, m, chunk_pairs):
        rows = min(chunk_pairs, m - start)
        draws = rng.random_array(rows * stride)
        if draws is None:
            # Below random_array's minimum, or a generator that is not
            # exactly random.Random: the loop path consumes the identical
            # draws.
            part = _sample_pairs_loop(rng, n, rows, t)
            disjointness.extend(part[0])
            block_id_rows.extend(part[1])
            alice_sets.extend(part[2])
            bob_sets.extend(part[3])
            continue
        block = draws.reshape(rows, stride)
        in_alice, in_bob, planted = gadget_membership_matrix(numpy, block, t)
        block_of_element = _block_ids_batched(numpy, block[:, t + 1 :], sizes)
        alice_sets.extend(
            masks_from_bool_rows(
                ~numpy.take_along_axis(in_alice, block_of_element, axis=1)
            )
        )
        bob_sets.extend(
            masks_from_bool_rows(
                ~numpy.take_along_axis(in_bob, block_of_element, axis=1)
            )
        )
        for row in range(rows):
            disjointness.append(
                DisjointnessInstance(
                    t=t,
                    alice=frozenset(numpy.nonzero(in_alice[row])[0].tolist()),
                    bob=frozenset(numpy.nonzero(in_bob[row])[0].tolist()),
                    z=1,
                    planted_element=int(planted[row]),
                )
            )
            block_id_rows.append(block_of_element[row])
    return disjointness, block_id_rows, alice_sets, bob_sets


def _rebuild_pair_masks(
    pair: DisjointnessInstance, mapping: MappingExtension, full: int
) -> Tuple[int, int]:
    """Masks of (S, T) for one pair under an already-drawn mapping."""
    return (
        full & ~mapping.extend_mask(pair.alice),
        full & ~mapping.extend_mask(pair.bob),
    )


def sample_dsc(
    parameters: DSCParameters,
    seed: SeedLike = None,
    theta: Optional[int] = None,
) -> DSCInstance:
    """Sample an instance from D_SC (optionally forcing the hidden bit θ).

    Sampling cost is O(total incidences): the whole pair block draws through
    bulk :meth:`~repro.utils.rng.RandomSource.random_array` calls and the 2m
    masks assemble as packed-bit matrix rows.  Without NumPy (or with
    ``REPRO_SAMPLER_BATCH=off``) the per-draw loop path runs instead,
    producing bit-identical instances from the identical float stream.
    """
    rng = spawn_rng(seed)
    n = parameters.universe_size
    m = parameters.num_pairs
    t = parameters.resolved_t()
    full = universe_mask(n)

    with span("sampler.dsc", n=n, m=m, t=t) as active:
        metrics.add("sampler.dsc_instances")
        numpy = batching_numpy()
        if numpy is not None:
            disjointness, block_id_rows, alice_sets, bob_sets = _sample_pairs_batched(
                numpy, rng, n, m, t
            )
        else:
            disjointness, block_id_rows, alice_sets, bob_sets = _sample_pairs_loop(
                rng, n, m, t
            )
        mappings = LazyMappings(n, t, block_id_rows)

        if theta is None:
            theta = rng.randint(0, 1)
        if theta not in (0, 1):
            raise DistributionError(f"theta must be 0 or 1, got {theta}")
        special_index: Optional[int] = None
        if theta == 1:
            special_index = rng.randrange(m)
            pair = sample_ddisj_yes(t, seed=rng)
            disjointness[special_index] = pair
            alice_sets[special_index], bob_sets[special_index] = _rebuild_pair_masks(
                pair, mappings[special_index], full
            )
        active.set(theta=theta, batched=numpy is not None)

    return DSCInstance(
        parameters=parameters,
        theta=theta,
        special_index=special_index,
        disjointness=disjointness,
        mappings=mappings,
        alice_sets=alice_sets,
        bob_sets=bob_sets,
    )


def sample_dsc_random_partition(
    parameters: DSCParameters,
    seed: SeedLike = None,
    theta: Optional[int] = None,
) -> Tuple[DSCInstance, SetCoverInput, SetCoverInput, Dict[int, str]]:
    """Sample from D_SC^rnd: a D_SC instance with a random 1/2-1/2 set partition.

    Returns the underlying instance, the two players' inputs, and the
    assignment map from global set index to ``"alice"`` / ``"bob"``.
    """
    rng = spawn_rng(seed)
    instance = sample_dsc(parameters, seed=rng.spawn(), theta=theta)
    assignment: Dict[int, str] = {}
    alice_sets: Dict[int, int] = {}
    bob_sets: Dict[int, int] = {}
    draws = rng.random_batch(2 * instance.num_pairs)
    for global_index in range(2 * instance.num_pairs):
        if global_index < instance.num_pairs:
            mask = instance.alice_sets[global_index]
        else:
            mask = instance.bob_sets[global_index - instance.num_pairs]
        owner = "alice" if draws[global_index] < 0.5 else "bob"
        assignment[global_index] = owner
        if owner == "alice":
            alice_sets[global_index] = mask
        else:
            bob_sets[global_index] = mask
    return (
        instance,
        SetCoverInput(instance.universe_size, alice_sets),
        SetCoverInput(instance.universe_size, bob_sets),
        assignment,
    )
