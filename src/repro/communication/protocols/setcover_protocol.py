"""Two-party protocols for the set cover problem.

``SetCover`` in the paper's Section 3: the 2m sets are partitioned between
Alice and Bob and the players must α-approximate the optimal cover size.

Two concrete protocols are provided:

* :class:`FullExchangeSetCoverProtocol` — Alice ships her whole input and Bob
  solves the instance exactly; cost Θ(m·n) bits.  This is the trivial
  protocol whose cost the paper's Theorem 3 shows cannot be beaten by more
  than the ``n^{1-1/α}`` factor.
* :class:`TwoPartyAlgorithmOneProtocol` — a communication-model simulation of
  Algorithm 1: shared public randomness fixes the sampled universes, each
  round Alice sends the projections of her sets (``Õ(m·n^{1/α})`` bits), Bob
  solves the sampled sub-instance offline and sends back the chosen indices
  and the updated uncovered universe.  Its cost exhibits the paper's upper
  bound shape ``Õ(α · m · n^{1/α} + n)`` and it outputs an
  (α+ε)-approximation of the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.communication.model import ElementSet, Message, Protocol, Transcript, TwoPartyProtocol
from repro.core.element_sampling import element_sample_mask, sampling_probability
from repro.setcover.exact import exact_set_cover
from repro.setcover.greedy import greedy_set_cover
from repro.setcover.instance import SetSystem
from repro.utils.bitset import bitset_size
from repro.utils.rng import SeedLike, spawn_rng


@dataclass(frozen=True)
class SetCoverInput:
    """One player's share of a two-party set cover instance.

    ``sets`` maps the *global* set index to the set's bitset mask, so the two
    players' shares can be merged unambiguously and solutions refer to global
    indices.
    """

    universe_size: int
    sets: Dict[int, int]

    @property
    def num_sets(self) -> int:
        """Number of sets held by this player."""
        return len(self.sets)


def merge_inputs(alice: SetCoverInput, bob: SetCoverInput) -> Tuple[SetSystem, List[int]]:
    """Merge the two shares into one system; returns (system, global indices)."""
    if alice.universe_size != bob.universe_size:
        raise ValueError("the two players disagree on the universe size")
    merged = dict(alice.sets)
    for index, mask in bob.sets.items():
        if index in merged:
            raise ValueError(f"set index {index} appears on both sides")
        merged[index] = mask
    order = sorted(merged)
    system = SetSystem.from_masks(
        alice.universe_size, [merged[i] for i in order], [f"S{i}" for i in order]
    )
    return system, order


class FullExchangeSetCoverProtocol(TwoPartyProtocol):
    """Alice sends every set she holds; Bob solves exactly and outputs opt."""

    name = "setcover-full-exchange"

    def __init__(self, solver: str = "exact") -> None:
        if solver not in ("exact", "greedy"):
            raise ValueError(f"solver must be 'exact' or 'greedy', got {solver!r}")
        self.solver = solver

    def alice_round(
        self,
        alice_input: SetCoverInput,
        received: List[Message],
        state: Dict[str, Any],
    ) -> Tuple[Any, Optional[Any]]:
        payload = [
            (index, ElementSet(mask)) for index, mask in sorted(alice_input.sets.items())
        ]
        return payload, None

    def bob_round(
        self,
        bob_input: SetCoverInput,
        received: List[Message],
        state: Dict[str, Any],
    ) -> Tuple[Any, Optional[Any]]:
        alice_sets = {index: elements.mask for index, elements in received[0].payload}
        alice_input = SetCoverInput(bob_input.universe_size, alice_sets)
        system, _order = merge_inputs(alice_input, bob_input)
        if self.solver == "exact":
            solution = exact_set_cover(system)
        else:
            solution = greedy_set_cover(system)
        value = len(solution)
        return value, value


class TwoPartyAlgorithmOneProtocol(Protocol):
    """Communication-model simulation of Algorithm 1 (α-approximation).

    The protocol mirrors the streaming algorithm pass for pass:

    1. *Pruning:* Alice picks her sets covering ≥ n/(ε·õpt) uncovered
       elements and sends the resulting uncovered universe to Bob, who does
       the same and sends the universe back.
    2. *α sampling rounds:* a shared (public-randomness) element sample of the
       uncovered universe is fixed; Alice sends the projections of all her
       sets onto the sample; Bob, who now holds every projection, covers the
       sample offline, announces the chosen global indices, asks Alice for the
       full content of her chosen sets, and both players update the uncovered
       universe.

    The output is the total number of chosen sets — an (α+ε)-approximation of
    opt on coverable instances, with communication dominated by the α rounds
    of projections: ``Õ(α·m·n^{1/α}/ε)`` bits.
    """

    name = "setcover-two-party-algorithm1"

    def __init__(
        self,
        alpha: int,
        opt_guess: int,
        epsilon: float = 0.5,
        subinstance_solver: str = "exact",
        sampling_constant: float = 16.0,
        seed: SeedLike = None,
    ) -> None:
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        if opt_guess < 1:
            raise ValueError(f"opt_guess must be >= 1, got {opt_guess}")
        self.alpha = alpha
        self.opt_guess = opt_guess
        self.epsilon = epsilon
        self.subinstance_solver = subinstance_solver
        self.sampling_constant = sampling_constant
        self._rng = spawn_rng(seed)

    def execute(
        self, alice_input: SetCoverInput, bob_input: SetCoverInput
    ) -> Transcript:
        transcript = Transcript()
        n = alice_input.universe_size
        m = alice_input.num_sets + bob_input.num_sets
        uncovered = (1 << n) - 1
        solution: List[int] = []
        rng = self._rng.spawn()
        transcript.public_randomness = "shared-element-samples"

        # -- pruning pass ----------------------------------------------------
        threshold = n / (self.epsilon * self.opt_guess)
        for player, inputs in (("alice", alice_input), ("bob", bob_input)):
            picked_here: List[int] = []
            for index in sorted(inputs.sets):
                mask = inputs.sets[index]
                if bitset_size(mask & uncovered) >= threshold:
                    picked_here.append(index)
                    uncovered &= ~mask
                    solution.append(index)
            # The player announces the picked indices and the new uncovered
            # universe; the universe is charged as an n-bit characteristic
            # vector (the encoding the paper's +n space term corresponds to).
            transcript.messages.append(
                Message(
                    sender=player,
                    payload={
                        "picked": picked_here,
                        "uncovered": ElementSet(uncovered),
                    },
                    bits=n + 1 + len(picked_here) * max(1, (m).bit_length()),
                )
            )

        # -- alpha sampling rounds --------------------------------------------
        rho = n ** (-1.0 / self.alpha) if n > 1 else 0.5
        for _round in range(self.alpha):
            if uncovered == 0:
                break
            probability = sampling_probability(
                universe_size=n,
                num_sets=max(m, 2),
                cover_size_bound=self.opt_guess,
                rho=rho,
                constant=self.sampling_constant,
            )
            sample_mask = element_sample_mask(uncovered, probability, seed=rng.spawn())

            # Alice ships her projections onto the shared sample.
            alice_projections = [
                (index, ElementSet(mask & sample_mask))
                for index, mask in sorted(alice_input.sets.items())
            ]
            transcript.messages.append(Message(sender="alice", payload=alice_projections))

            # Bob covers the sample offline using all projections.
            projections = {index: elements.mask for index, elements in alice_projections}
            for index, mask in bob_input.sets.items():
                projections[index] = mask & sample_mask
            order = sorted(projections)
            sampled_system = SetSystem.from_masks(
                n, [projections[i] for i in order]
            )
            target = sample_mask
            for chosen_index in solution:
                if chosen_index in projections:
                    target &= ~projections[chosen_index]
            coverable = 0
            for mask in projections.values():
                coverable |= mask
            target &= coverable
            if target:
                if self.subinstance_solver == "exact":
                    local_solution = exact_set_cover(sampled_system, target_mask=target)
                else:
                    local_solution = greedy_set_cover(sampled_system, required_mask=target)
                round_choice = [order[i] for i in local_solution]
            else:
                round_choice = []
            transcript.messages.append(
                Message(sender="bob", payload={"chosen": round_choice})
            )

            # Alice reveals the full content of her chosen sets so both
            # players can shrink the uncovered universe identically.
            revealed = [
                (index, ElementSet(alice_input.sets[index]))
                for index in round_choice
                if index in alice_input.sets
            ]
            transcript.messages.append(Message(sender="alice", payload=revealed))
            for index in round_choice:
                if index not in solution:
                    solution.append(index)
                full_mask = alice_input.sets.get(index, bob_input.sets.get(index, 0))
                uncovered &= ~full_mask

        # -- clean-up: guarantee feasibility on coverable instances -----------
        if uncovered:
            for player, inputs in (("alice", alice_input), ("bob", bob_input)):
                extra: List[Tuple[int, ElementSet]] = []
                for index in sorted(inputs.sets):
                    if uncovered == 0:
                        break
                    if index in solution:
                        continue
                    mask = inputs.sets[index]
                    if mask & uncovered:
                        solution.append(index)
                        uncovered &= ~mask
                        extra.append((index, ElementSet(mask)))
                if extra:
                    transcript.messages.append(
                        Message(sender=player, payload={"cleanup": extra})
                    )

        transcript.output = len(solution)
        transcript.metadata = {
            "solution": solution,
            "uncovered": bitset_size(uncovered),
            "alpha": self.alpha,
            "opt_guess": self.opt_guess,
        }
        return transcript
