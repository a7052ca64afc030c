"""Information cost of concrete communication protocols.

Definition 2 of the paper: the internal information cost of a protocol π on a
distribution D over inputs (X, Y) is ``I(Π : X | Y) + I(Π : Y | X)`` where Π
is the transcript (including public randomness).

For the concrete, deterministic-given-randomness protocols implemented in
:mod:`repro.communication`, the transcript is a deterministic function of the
inputs and the (enumerable) randomness, so on a small input distribution the
information cost can be computed *exactly* by building the joint distribution
of (X, Y, Π) and applying the exact mutual-information formulas.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence, Tuple

from repro.infotheory.distributions import JointDistribution
from repro.infotheory.entropy import conditional_mutual_information


def transcript_information_cost(joint: JointDistribution) -> float:
    """Internal information cost from an explicit (X, Y, Pi) joint.

    The joint must have variables named ``"X"``, ``"Y"`` and ``"Pi"``.
    """
    for required in ("X", "Y", "Pi"):
        if required not in joint.variables:
            raise ValueError(f"joint must contain variable {required!r}")
    return conditional_mutual_information(joint, ["Pi"], ["X"], ["Y"]) + (
        conditional_mutual_information(joint, ["Pi"], ["Y"], ["X"])
    )


def internal_information_cost(
    input_distribution: Iterable[Tuple[Hashable, Hashable, float]],
    transcript_fn: Callable[[Hashable, Hashable], Hashable],
) -> float:
    """Exact internal information cost of a deterministic protocol.

    Parameters
    ----------
    input_distribution:
        Iterable of ``(x, y, probability)`` triples describing the input
        distribution D.
    transcript_fn:
        Deterministic mapping from inputs to the full transcript.  Randomized
        protocols should be handled by folding the public randomness into the
        transcript value and averaging externally (Claim 2.3 guarantees this
        matches the definition).
    """
    pmf = {}
    for x, y, probability in input_distribution:
        transcript = transcript_fn(x, y)
        key = (x, y, transcript)
        pmf[key] = pmf.get(key, 0.0) + probability
    joint = JointDistribution(["X", "Y", "Pi"], pmf)
    return transcript_information_cost(joint)


def information_cost_of_randomized_protocol(
    input_distribution: Sequence[Tuple[Hashable, Hashable, float]],
    randomness_values: Sequence[Tuple[Hashable, float]],
    transcript_fn: Callable[[Hashable, Hashable, Hashable], Hashable],
) -> float:
    """Information cost when the protocol also uses enumerable public randomness.

    Per Claim 2.3, the transcript "includes" the public randomness, so we fold
    the randomness value R into the transcript symbol ``(R, Π_R(x, y))`` and
    compute the internal information cost of the resulting joint.
    """
    pmf = {}
    for x, y, p_input in input_distribution:
        for r, p_r in randomness_values:
            transcript = (r, transcript_fn(x, y, r))
            key = (x, y, transcript)
            pmf[key] = pmf.get(key, 0.0) + p_input * p_r
    joint = JointDistribution(["X", "Y", "Pi"], pmf)
    return transcript_information_cost(joint)
