"""Protocols for the set disjointness problem.

Disjointness has (randomised) communication complexity Θ(t); the trivial
protocol below communicates Θ(t·log t) bits and is the baseline the E12
benchmark compares the information-cost lower bound against.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.communication.model import Message, TwoPartyProtocol
from repro.problems.disjointness import DisjointnessInstance


class TrivialDisjProtocol(TwoPartyProtocol):
    """Alice sends her entire set; Bob announces the answer."""

    name = "disj-trivial"

    def alice_round(
        self,
        alice_input: frozenset,
        received: List[Message],
        state: Dict[str, Any],
    ) -> Tuple[Any, Optional[Any]]:
        return sorted(alice_input), None

    def bob_round(
        self,
        bob_input: frozenset,
        received: List[Message],
        state: Dict[str, Any],
    ) -> Tuple[Any, Optional[Any]]:
        alice_set = set(received[0].payload)
        answer = "Yes" if not (alice_set & bob_input) else "No"
        return answer, answer


class IntersectionProbeProtocol(TwoPartyProtocol):
    """Bob sends his set size, then Alice sends her set and Bob answers.

    A deliberately slightly-interactive variant used by tests to exercise the
    multi-round transcript machinery (the extra round carries no information
    about the answer, so its information cost matches the trivial protocol's
    up to the size announcement).
    """

    name = "disj-probe"

    def alice_round(
        self,
        alice_input: frozenset,
        received: List[Message],
        state: Dict[str, Any],
    ) -> Tuple[Any, Optional[Any]]:
        if not received:
            # First round: ask Bob for his size (send a probe bit).
            return True, None
        return sorted(alice_input), None

    def bob_round(
        self,
        bob_input: frozenset,
        received: List[Message],
        state: Dict[str, Any],
    ) -> Tuple[Any, Optional[Any]]:
        if len(received) == 1:
            return len(bob_input), None
        alice_set = set(received[-1].payload)
        answer = "Yes" if not (alice_set & bob_input) else "No"
        return answer, answer


def correct_disjointness_answer(
    instance: DisjointnessInstance, output: Any
) -> bool:
    """Judge a protocol output against the true Disj answer."""
    expected = "Yes" if instance.is_disjoint else "No"
    return output == expected


def extract_inputs(instance: DisjointnessInstance) -> Tuple[frozenset, frozenset]:
    """Convert a :class:`DisjointnessInstance` into protocol inputs."""
    return instance.alice, instance.bob
