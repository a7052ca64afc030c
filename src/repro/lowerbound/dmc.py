"""The hard maximum coverage distribution ``D_MC`` (Section 4.2).

Parameters: ``t1 = 1/ε²`` (GHD gadget size, universe part U1) and
``t2 = 10·t1`` (the pairing part U2); the universe is ``U1 ∪ U2`` with
``n = t1 + t2``.

For every ``i ∈ [m]``:

* draw ``(A_i, B_i) ~ D_GHD^N`` on U1 (hamming distance below the gap);
* randomly split U2 into ``C_i`` (Alice's half) and ``D_i`` (Bob's half);
* set ``S_i := A_i ∪ C_i`` and ``T_i := B_i ∪ D_i``.

Flip θ; when θ = 1 resample ``(A_{i*}, B_{i*}) ~ D_GHD^Y`` for a random i*.
Lemma 4.3: the optimal 2-coverage is ``(1 ± Θ(ε))·τ`` depending on θ, so a
(1−ε)-approximation must determine θ; Claim 4.4: a near-optimal 2-cover must
take a matched pair (S_i, T_i) because mixed pairs cover ≤ (3/4 + 0.2)·t2 of
U2 while matched pairs cover all of it.

Draw protocol: per pair, the GHD gadget's rejection attempts (2·t1 floats
each, see :mod:`repro.problems.ghd`) followed by ``t2`` split uniforms
(``u < 1/2`` sends the U2 element to Alice's half ``C_i``); then the θ flip
and, when θ = 1, the special index and a D_GHD^Y gadget resample (the U2
split is reused).  The split draws batch through
:meth:`~repro.utils.rng.RandomSource.random_array` with packed mask
assembly; the loop path applies identical transforms to identical floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.communication.protocols.setcover_protocol import SetCoverInput
from repro.exceptions import DistributionError
from repro.problems.ghd import GHDInstance, default_set_sizes, sample_dghd_no, sample_dghd_yes
from repro.setcover.instance import SetSystem
from repro.telemetry import metrics
from repro.telemetry.spans import span
from repro.utils.bitset import bitset_from_indices, mask_from_bools
from repro.utils.rng import SeedLike, batching_numpy, spawn_rng


@dataclass(frozen=True)
class DMCParameters:
    """Parameters of the D_MC sampler.

    ``epsilon`` controls the GHD gadget size ``t1 = ceil(1/ε²)``;
    ``u2_factor`` is the paper's factor 10 relating ``t2`` to ``t1``.
    """

    num_pairs: int  # m in the paper; the instance has 2m sets
    epsilon: float
    u2_factor: int = 10
    ghd_set_sizes: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.num_pairs < 1:
            raise DistributionError("num_pairs must be at least 1")
        if not 0 < self.epsilon < 1:
            raise DistributionError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.u2_factor < 1:
            raise DistributionError("u2_factor must be at least 1")

    @property
    def t1(self) -> int:
        """GHD gadget size: ceil(1/ε²)."""
        return max(1, int(round(1.0 / self.epsilon ** 2)))

    @property
    def t2(self) -> int:
        """Size of the pairing part U2."""
        return self.u2_factor * self.t1

    @property
    def universe_size(self) -> int:
        """Total universe size n = t1 + t2."""
        return self.t1 + self.t2

    def resolved_set_sizes(self) -> Tuple[int, int]:
        """The (a, b) sizes used for the GHD gadgets."""
        if self.ghd_set_sizes is not None:
            return self.ghd_set_sizes
        return default_set_sizes(self.t1)


@dataclass
class DMCInstance:
    """One sample from D_MC with full provenance.

    Universe layout: elements ``0..t1-1`` are U1 (the GHD part) and elements
    ``t1..t1+t2-1`` are U2 (the pairing part).  Global set indices follow the
    D_SC convention: ``S_i`` is index ``i``, ``T_i`` is index ``m + i``.
    """

    parameters: DMCParameters
    theta: int
    special_index: Optional[int]
    ghd: List[GHDInstance]
    alice_sets: List[int] = field(default_factory=list)
    bob_sets: List[int] = field(default_factory=list)

    @property
    def universe_size(self) -> int:
        """Universe size n = t1 + t2."""
        return self.parameters.universe_size

    @property
    def num_pairs(self) -> int:
        """Number of (S_i, T_i) pairs m."""
        return self.parameters.num_pairs

    def set_system(self) -> SetSystem:
        """All 2m sets as one system."""
        names = [f"S{i}" for i in range(self.num_pairs)] + [
            f"T{i}" for i in range(self.num_pairs)
        ]
        return SetSystem.from_masks(
            self.universe_size, self.alice_sets + self.bob_sets, names
        )

    def communication_inputs(self) -> Tuple[SetCoverInput, SetCoverInput]:
        """Alice gets all S_i, Bob all T_i (the fixed-partition distribution)."""
        alice = SetCoverInput(
            self.universe_size, {i: mask for i, mask in enumerate(self.alice_sets)}
        )
        bob = SetCoverInput(
            self.universe_size,
            {self.num_pairs + i: mask for i, mask in enumerate(self.bob_sets)},
        )
        return alice, bob

    def pair_coverage(self, index: int) -> int:
        """|S_i ∪ T_i| — the matched-pair coverage for pair ``index``."""
        return self.set_system().coverage([index, self.num_pairs + index])


def _u2_split_masks(rng, t1: int, t2: int) -> Tuple[int, int]:
    """Draw one pair's U2 split: t2 uniforms → (C_i, D_i) masks over [t1, t1+t2).

    Batched through :meth:`~repro.utils.rng.RandomSource.random_array` with a
    single packed-bit assembly per half; the loop path consumes the identical
    floats in the identical ascending element order.
    """
    numpy = batching_numpy()
    draws = rng.random_array(t2) if numpy is not None else None
    if draws is not None:
        in_c = draws < 0.5
        return mask_from_bools(in_c) << t1, mask_from_bools(~in_c) << t1
    batch = rng.random_batch(t2)
    c_elements = [t1 + offset for offset, draw in enumerate(batch) if draw < 0.5]
    d_elements = [t1 + offset for offset, draw in enumerate(batch) if draw >= 0.5]
    return bitset_from_indices(c_elements), bitset_from_indices(d_elements)


def sample_dmc(
    parameters: DMCParameters,
    seed: SeedLike = None,
    theta: Optional[int] = None,
) -> DMCInstance:
    """Sample an instance from D_MC (optionally forcing the hidden bit θ)."""
    rng = spawn_rng(seed)
    m = parameters.num_pairs
    t1 = parameters.t1
    t2 = parameters.t2
    a, b = parameters.resolved_set_sizes()

    with span("sampler.dmc", m=m, t1=t1, t2=t2) as active:
        metrics.add("sampler.dmc_instances")
        ghd_instances: List[GHDInstance] = []
        alice_sets: List[int] = []
        bob_sets: List[int] = []
        c_masks: List[int] = []
        d_masks: List[int] = []
        for _ in range(m):
            pair = sample_dghd_no(t1, a, b, seed=rng)
            ghd_instances.append(pair)
            c_mask, d_mask = _u2_split_masks(rng, t1, t2)
            c_masks.append(c_mask)
            d_masks.append(d_mask)
            alice_sets.append(bitset_from_indices(sorted(pair.alice)) | c_mask)
            bob_sets.append(bitset_from_indices(sorted(pair.bob)) | d_mask)

        if theta is None:
            theta = rng.randint(0, 1)
        if theta not in (0, 1):
            raise DistributionError(f"theta must be 0 or 1, got {theta}")
        special_index: Optional[int] = None
        if theta == 1:
            special_index = rng.randrange(m)
            pair = sample_dghd_yes(t1, a, b, seed=rng)
            ghd_instances[special_index] = pair
            alice_sets[special_index] = (
                bitset_from_indices(sorted(pair.alice)) | c_masks[special_index]
            )
            bob_sets[special_index] = (
                bitset_from_indices(sorted(pair.bob)) | d_masks[special_index]
            )
        active.set(theta=theta)

    return DMCInstance(
        parameters=parameters,
        theta=theta,
        special_index=special_index,
        ghd=ghd_instances,
        alice_sets=alice_sets,
        bob_sets=bob_sets,
    )


def lemma_4_3_tau(parameters: DMCParameters) -> float:
    """The threshold τ = t2 + (a+b)/2 + t1/4 separating the two θ cases."""
    a, b = parameters.resolved_set_sizes()
    return parameters.t2 + (a + b) / 2.0 + parameters.t1 / 4.0
