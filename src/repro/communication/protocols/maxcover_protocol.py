"""Two-party protocol for the maximum coverage problem (k sets, value goal).

:class:`FullExchangeMaxCoverProtocol` — Alice ships everything, Bob solves
exactly; Θ(m·n) bits.  The GHD reduction of E10 runs it on ``D_MC``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.communication.model import ElementSet, Message, TwoPartyProtocol
from repro.communication.protocols.setcover_protocol import SetCoverInput, merge_inputs
from repro.setcover.maxcover import exact_max_coverage, greedy_max_coverage


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
