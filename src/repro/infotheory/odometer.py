"""A per-round information odometer for concrete protocols (Lemma 3.6 context).

Braverman and Weinstein's "information odometer" lets two players keep a
running estimate of how much information their protocol has revealed so far,
and the paper (via Göös et al., Lemma 3.6) uses it to relate a protocol's
information cost on Yes- and No-instances: run the protocol, watch the
odometer, and abort once the revealed information exceeds a threshold.

For the small, exactly-enumerable distributions used in this reproduction we
do not need the interactive estimator: the cumulative information revealed
after each round can be computed *exactly* from the joint distribution of
(inputs, transcript prefix).  :class:`InformationOdometer` does precisely
that, and :func:`truncate_at_budget` implements the Lemma 3.6 construction —
a new protocol that aborts once the odometer passes a budget — whose error
and information cost the E12-style tests compare against the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

from repro.infotheory.distributions import JointDistribution
from repro.infotheory.entropy import conditional_mutual_information

InputTriple = Tuple[Hashable, Hashable, float]
TranscriptFn = Callable[[Hashable, Hashable], Sequence[Hashable]]


@dataclass
class OdometerReading:
    """Cumulative internal information revealed after a given round."""

    round_index: int
    revealed_to_bob: float  # I(prefix : X | Y)
    revealed_to_alice: float  # I(prefix : Y | X)

    @property
    def total(self) -> float:
        """Internal information cost of the prefix."""
        return self.revealed_to_bob + self.revealed_to_alice


class InformationOdometer:
    """Exact per-round information accounting for a deterministic protocol.

    Parameters
    ----------
    input_distribution:
        Triples ``(x, y, probability)`` describing the input distribution.
    transcript_fn:
        Maps an input pair to the *sequence* of messages the protocol sends
        (the full transcript, one entry per round).
    """

    def __init__(
        self,
        input_distribution: Sequence[InputTriple],
        transcript_fn: TranscriptFn,
    ) -> None:
        if not input_distribution:
            raise ValueError("input distribution must be non-empty")
        total = sum(p for _, _, p in input_distribution)
        if total <= 0:
            raise ValueError("input distribution has no mass")
        self._inputs = [(x, y, p / total) for x, y, p in input_distribution]
        self._transcript_fn = transcript_fn
        self._transcripts: Dict[Tuple[Hashable, Hashable], Tuple[Hashable, ...]] = {}
        for x, y, _ in self._inputs:
            self._transcripts[(x, y)] = tuple(transcript_fn(x, y))
        self._max_rounds = max(
            (len(t) for t in self._transcripts.values()), default=0
        )

    @property
    def max_rounds(self) -> int:
        """Length of the longest transcript over the support."""
        return self._max_rounds

    def _prefix_joint(self, rounds: int) -> JointDistribution:
        pmf: Dict[Tuple[Hashable, Hashable, Hashable], float] = {}
        for x, y, probability in self._inputs:
            prefix = self._transcripts[(x, y)][:rounds]
            key = (x, y, prefix)
            pmf[key] = pmf.get(key, 0.0) + probability
        return JointDistribution(["X", "Y", "Pi"], pmf)

    def reading_after(self, rounds: int) -> OdometerReading:
        """Exact cumulative information revealed by the first ``rounds`` messages."""
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        joint = self._prefix_joint(rounds)
        return OdometerReading(
            round_index=rounds,
            revealed_to_bob=conditional_mutual_information(joint, ["Pi"], ["X"], ["Y"]),
            revealed_to_alice=conditional_mutual_information(joint, ["Pi"], ["Y"], ["X"]),
        )

    def readings(self) -> List[OdometerReading]:
        """Readings after every round, from 0 up to the longest transcript."""
        return [self.reading_after(r) for r in range(self._max_rounds + 1)]


def truncate_at_budget(
    odometer: InformationOdometer,
    budget: float,
) -> int:
    """Return the largest round count whose cumulative information is ≤ budget.

    This is the (idealised, exactly-computed) stopping rule of the Lemma 3.6
    construction: the truncated protocol runs for this many rounds and then
    aborts with an arbitrary answer.  Monotonicity of the readings is
    guaranteed because a longer prefix reveals at least as much information.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    allowed = 0
    for reading in odometer.readings():
        if reading.total <= budget + 1e-9:
            allowed = reading.round_index
        else:
            break
    return allowed
