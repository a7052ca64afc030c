"""The reduction protocols of Lemma 3.4 and Lemma 4.5.

* :class:`DisjViaSetCoverProtocol` — solves ``Disj_t`` by embedding the input
  pair at a random position of a freshly sampled D_SC instance and running any
  two-party set cover protocol on it; the Disj answer is read off from whether
  the estimated optimum is ≤ 2α.
* :class:`GHDViaMaxCoverProtocol` — the analogous embedding of a ``GHD_{t1}``
  input into a D_MC instance, answered by comparing the estimated maximum
  2-coverage against the threshold τ of Lemma 4.3.

These are the constructive halves of the paper's direct-sum arguments; the E7
and E10 benchmarks run them against exact/approximate inner protocols and
report the empirical error rates (which the lemmas bound by δ + o(1)).

Note on answer polarity: the paper's Protocol π_Disj (Section 3.2) says
"output No iff π_SC estimates opt ≤ 2α"; with the paper's own conventions
(Yes ⇔ A ∩ B = ∅ ⇔ the embedded pair behaves like θ = 1 ⇔ opt = 2) the
estimate ≤ 2α case corresponds to the *Yes* answer, so we output Yes in that
case — the paper's sentence has the two labels swapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.communication.model import Message, Protocol, Transcript
from repro.communication.protocols.setcover_protocol import SetCoverInput
from repro.lowerbound.dmc import DMCParameters, lemma_4_3_tau
from repro.lowerbound.dsc import DSCParameters
from repro.lowerbound.mapping_extension import random_mapping_extension
from repro.problems.disjointness import DisjointnessInstance, sample_ddisj_no
from repro.problems.ghd import GHDInstance, sample_dghd_no
from repro.utils.bitset import bitset_from_iterable, universe_mask
from repro.utils.rng import SeedLike, spawn_rng


@dataclass
class EmbeddingRecord:
    """Bookkeeping of one embedding run (exposed through transcript metadata)."""

    special_index: int
    estimate: float
    threshold: float
    answer: str


class DisjViaSetCoverProtocol(Protocol):
    """Lemma 3.4: a protocol for Disj_t built from a SetCover protocol.

    The players publicly sample the index ``i*``, the mapping-extensions, and
    the other ``m − 1`` disjointness pairs from ``D_Disj^N``; the real input
    ``(A, B)`` is embedded at position ``i*``; they run the inner set cover
    protocol on the resulting (exactly D_SC-distributed) instance and answer
    "Yes" (disjoint) iff the estimated optimum is at most ``2α``.
    """

    name = "disj-via-setcover"

    def __init__(
        self,
        inner_protocol: Protocol,
        parameters: DSCParameters,
        seed: SeedLike = None,
        decision_threshold: Optional[float] = None,
    ) -> None:
        self.inner_protocol = inner_protocol
        self.parameters = parameters
        self._rng = spawn_rng(seed)
        # The paper's threshold is 2α (valid in the asymptotic regime where
        # Lemma 3.2 gives opt > 2α for intersecting pairs).  At reproduction
        # scale an exact inner oracle justifies the sharper threshold 2, so
        # experiments may override it.
        self.decision_threshold = (
            decision_threshold
            if decision_threshold is not None
            else 2.0 * parameters.alpha
        )

    def execute(
        self, alice_input: FrozenSet[int], bob_input: FrozenSet[int]
    ) -> Transcript:
        rng = self._rng.spawn()
        n = self.parameters.universe_size
        m = self.parameters.num_pairs
        t = self.parameters.resolved_t()
        full = universe_mask(n)

        # Public randomness: the embedding position, all mapping-extensions,
        # and the other pairs (sampled publicly here; the paper splits them
        # between public and private randomness only to make the
        # information-cost bookkeeping work, which does not affect the
        # constructed instance's distribution or the protocol's correctness).
        special_index = rng.randrange(m)
        alice_sets: List[int] = []
        bob_sets: List[int] = []
        for index in range(m):
            mapping = random_mapping_extension(n, t, seed=rng.spawn())
            if index == special_index:
                pair_alice, pair_bob = alice_input, bob_input
            else:
                filler = sample_ddisj_no(t, seed=rng.spawn())
                pair_alice, pair_bob = filler.alice, filler.bob
            alice_sets.append(full & ~mapping.extend_mask(pair_alice))
            bob_sets.append(full & ~mapping.extend_mask(pair_bob))

        sc_alice = SetCoverInput(n, {i: mask for i, mask in enumerate(alice_sets)})
        sc_bob = SetCoverInput(n, {m + i: mask for i, mask in enumerate(bob_sets)})
        inner_transcript = self.inner_protocol.execute(sc_alice, sc_bob)
        estimate = float(inner_transcript.output)
        threshold = self.decision_threshold
        answer = "Yes" if estimate <= threshold else "No"

        transcript = Transcript()
        transcript.messages = list(inner_transcript.messages)
        transcript.messages.append(Message(sender="bob", payload=answer))
        transcript.output = answer
        transcript.public_randomness = {"special_index": special_index}
        transcript.metadata = {
            "embedding": EmbeddingRecord(
                special_index=special_index,
                estimate=estimate,
                threshold=threshold,
                answer=answer,
            ),
            "inner_protocol": self.inner_protocol.name,
        }
        return transcript


class GHDViaMaxCoverProtocol(Protocol):
    """Lemma 4.5: a protocol for GHD_{t1} built from a MaxCover protocol.

    The players embed the input pair at a random position of a D_MC instance
    (the other pairs drawn from ``D_GHD^N``, the U2 halves split by public
    randomness), run the inner maximum-coverage protocol (k = 2), and answer
    "Yes" iff the estimated optimal coverage exceeds the Lemma 4.3 threshold τ.
    """

    name = "ghd-via-maxcover"

    def __init__(
        self,
        inner_protocol: Protocol,
        parameters: DMCParameters,
        seed: SeedLike = None,
    ) -> None:
        self.inner_protocol = inner_protocol
        self.parameters = parameters
        self._rng = spawn_rng(seed)

    def execute(
        self, alice_input: FrozenSet[int], bob_input: FrozenSet[int]
    ) -> Transcript:
        rng = self._rng.spawn()
        params = self.parameters
        m = params.num_pairs
        t1, t2 = params.t1, params.t2
        a, b = params.resolved_set_sizes()
        u2_elements = list(range(t1, t1 + t2))

        special_index = rng.randrange(m)
        alice_sets: List[int] = []
        bob_sets: List[int] = []
        for index in range(m):
            if index == special_index:
                pair_alice, pair_bob = alice_input, bob_input
            else:
                filler = sample_dghd_no(t1, a, b, seed=rng.spawn())
                pair_alice, pair_bob = filler.alice, filler.bob
            c_part: List[int] = []
            d_part: List[int] = []
            for element in u2_elements:
                if rng.bernoulli(0.5):
                    c_part.append(element)
                else:
                    d_part.append(element)
            alice_sets.append(bitset_from_iterable(list(pair_alice) + c_part))
            bob_sets.append(bitset_from_iterable(list(pair_bob) + d_part))

        n = params.universe_size
        mc_alice = SetCoverInput(n, {i: mask for i, mask in enumerate(alice_sets)})
        mc_bob = SetCoverInput(n, {m + i: mask for i, mask in enumerate(bob_sets)})
        inner_transcript = self.inner_protocol.execute(mc_alice, mc_bob)
        estimate = float(inner_transcript.output)
        tau = lemma_4_3_tau(params)
        answer = "Yes" if estimate > tau else "No"

        transcript = Transcript()
        transcript.messages = list(inner_transcript.messages)
        transcript.messages.append(Message(sender="bob", payload=answer))
        transcript.output = answer
        transcript.public_randomness = {"special_index": special_index}
        transcript.metadata = {
            "embedding": EmbeddingRecord(
                special_index=special_index,
                estimate=estimate,
                threshold=tau,
                answer=answer,
            ),
            "inner_protocol": self.inner_protocol.name,
        }
        return transcript


def evaluate_disj_reduction(
    reduction: DisjViaSetCoverProtocol,
    instances: List[DisjointnessInstance],
) -> Tuple[float, float]:
    """Run the Lemma 3.4 reduction over Disj instances.

    Returns ``(error_rate, average_bits)``.
    """
    if not instances:
        raise ValueError("need at least one instance")
    errors = 0
    total_bits = 0
    for instance in instances:
        transcript = reduction.execute(instance.alice, instance.bob)
        expected = "Yes" if instance.is_disjoint else "No"
        if transcript.output != expected:
            errors += 1
        total_bits += transcript.total_bits
    return errors / len(instances), total_bits / len(instances)


def evaluate_ghd_reduction(
    reduction: GHDViaMaxCoverProtocol,
    instances: List[GHDInstance],
) -> Tuple[float, float]:
    """Run the Lemma 4.5 reduction over GHD instances (gap answers are free)."""
    if not instances:
        raise ValueError("need at least one instance")
    errors = 0
    total_bits = 0
    for instance in instances:
        transcript = reduction.execute(instance.alice, instance.bob)
        if instance.label in ("Yes", "No") and transcript.output != instance.label:
            errors += 1
        total_bits += transcript.total_bits
    return errors / len(instances), total_bits / len(instances)
