"""Two-party protocols for the maximum coverage problem (k sets, value goal).

* :class:`FullExchangeMaxCoverProtocol` — Alice ships everything, Bob solves
  exactly; Θ(m·n) bits.
* :class:`SampledMaxCoverProtocol` — shared element sample of size
  Θ(k·log m/ε²); Alice ships only projections, so the cost is Θ(m/ε²·log n)
  bits, matching the shape of the Theorem 4/5 lower bound Ω̃(m/ε²) and of the
  upper bounds of Bateni et al. / McGregor–Vu the paper cites.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.communication.model import ElementSet, Message, Protocol, Transcript, TwoPartyProtocol
from repro.communication.protocols.setcover_protocol import SetCoverInput, merge_inputs
from repro.core.element_sampling import element_sample
from repro.setcover.instance import SetSystem
from repro.setcover.maxcover import exact_max_coverage, greedy_max_coverage
from repro.utils.bitset import bitset_from_iterable
from repro.utils.rng import SeedLike, spawn_rng


class FullExchangeMaxCoverProtocol(TwoPartyProtocol):
    """Alice sends her sets; Bob solves max coverage exactly and outputs the value."""

    name = "maxcover-full-exchange"

    def __init__(self, k: int, solver: str = "exact") -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if solver not in ("exact", "greedy"):
            raise ValueError(f"solver must be 'exact' or 'greedy', got {solver!r}")
        self.k = k
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
            _, value = exact_max_coverage(system, self.k)
        else:
            _, value = greedy_max_coverage(system, self.k)
        return value, value


class SampledMaxCoverProtocol(Protocol):
    """Element-sampling protocol: Õ(m/ε²) bits for a (1±ε) estimate.

    A shared random sample of the universe of size ≈ c·k·log(m)/ε² is fixed by
    public randomness; Alice sends her sets' projections onto the sample; Bob
    solves max coverage on the projected instance and rescales the sampled
    value by the inverse sampling rate.
    """

    name = "maxcover-sampled"

    def __init__(
        self,
        k: int,
        epsilon: float,
        sampling_constant: float = 4.0,
        solver: str = "exact",
        seed: SeedLike = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        self.k = k
        self.epsilon = epsilon
        self.sampling_constant = sampling_constant
        self.solver = solver
        self._rng = spawn_rng(seed)

    def sampling_rate(self, universe_size: int, num_sets: int) -> float:
        """Per-element keep probability Θ(k·log m/(ε²·n))."""
        if universe_size <= 0:
            return 1.0
        log_m = math.log(max(num_sets, 2))
        rate = self.sampling_constant * self.k * log_m / (self.epsilon ** 2 * universe_size)
        return min(1.0, rate)

    def execute(
        self, alice_input: SetCoverInput, bob_input: SetCoverInput
    ) -> Transcript:
        transcript = Transcript()
        n = alice_input.universe_size
        m = alice_input.num_sets + bob_input.num_sets
        rate = self.sampling_rate(n, m)
        sample = element_sample(range(n), rate, seed=self._rng.spawn())
        sample_mask = bitset_from_iterable(sample)
        transcript.public_randomness = sorted(sample)

        alice_projections = [
            (index, ElementSet(mask & sample_mask))
            for index, mask in sorted(alice_input.sets.items())
        ]
        transcript.messages.append(Message(sender="alice", payload=alice_projections))

        projections = {index: elements.mask for index, elements in alice_projections}
        for index, mask in bob_input.sets.items():
            projections[index] = mask & sample_mask
        order = sorted(projections)
        system = SetSystem.from_masks(n, [projections[i] for i in order])
        if self.solver == "exact":
            chosen_local, sampled_value = exact_max_coverage(system, self.k)
        else:
            chosen_local, sampled_value = greedy_max_coverage(system, self.k)
        chosen = [order[i] for i in chosen_local]
        estimate = sampled_value / rate if rate > 0 else 0.0
        transcript.messages.append(
            Message(sender="bob", payload={"chosen": chosen, "estimate_x1000": int(estimate * 1000)})
        )
        transcript.output = estimate
        transcript.metadata = {
            "chosen": chosen,
            "sampled_value": sampled_value,
            "sampling_rate": rate,
            "sample_size": len(sample),
        }
        return transcript
