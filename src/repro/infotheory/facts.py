"""The paper's Appendix A information-theory facts as checkable predicates.

Each ``check_fact_*`` function evaluates both sides of the corresponding
inequality/identity on a concrete :class:`JointDistribution` and returns a
:class:`FactCheck` recording the two sides and whether the fact holds (within
a numerical tolerance).  The property-based tests feed random joints through
every check; E12 reports four of them — Facts A.1-(1), A.1-(2), A.1-(4) and
A.4 — on the exact joint of D_Disj.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.infotheory.distributions import JointDistribution
from repro.infotheory.entropy import (
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    mutual_information,
)

_TOLERANCE = 1e-7


@dataclass
class FactCheck:
    """Outcome of evaluating one information-theory fact."""

    name: str
    lhs: float
    rhs: float
    holds: bool

    def __bool__(self) -> bool:
        return self.holds


def check_fact_entropy_bounds(
    distribution: JointDistribution, variable: str
) -> FactCheck:
    """Fact A.1-(1): 0 <= H(A) <= log |supp(A)|."""
    h = entropy(distribution, [variable])
    support_size = len(distribution.marginal([variable]).support())
    upper = math.log2(support_size) if support_size > 0 else 0.0
    holds = -_TOLERANCE <= h <= upper + _TOLERANCE
    return FactCheck("A.1-(1) entropy bounds", h, upper, holds)


def check_fact_mi_nonnegative(
    distribution: JointDistribution, a: Sequence[str], b: Sequence[str]
) -> FactCheck:
    """Fact A.1-(2): I(A : B) >= 0."""
    value = mutual_information(distribution, list(a), list(b))
    return FactCheck("A.1-(2) MI non-negative", value, 0.0, value >= -_TOLERANCE)


def check_fact_conditioning_reduces_entropy(
    distribution: JointDistribution,
    a: str,
    b: Sequence[str],
    c: Sequence[str],
) -> FactCheck:
    """Fact A.1-(3): H(A | B, C) <= H(A | B)."""
    lhs = conditional_entropy(distribution, [a], list(b) + list(c))
    rhs = conditional_entropy(distribution, [a], list(b))
    return FactCheck("A.1-(3) conditioning reduces entropy", lhs, rhs, lhs <= rhs + _TOLERANCE)


def check_fact_chain_rule(
    distribution: JointDistribution,
    a: str,
    b: str,
    c: str,
) -> FactCheck:
    """Fact A.1-(4): I(A, B : C) = I(A : C) + I(B : C | A)."""
    lhs = mutual_information(distribution, [a, b], [c])
    rhs = mutual_information(distribution, [a], [c]) + conditional_mutual_information(
        distribution, [b], [c], [a]
    )
    return FactCheck("A.1-(4) chain rule", lhs, rhs, abs(lhs - rhs) <= 1e-6)


def check_fact_a2(
    distribution: JointDistribution,
    a: str,
    b: str,
    c: str,
    d: str,
) -> FactCheck:
    """Fact A.2: if A ⊥ D | C then I(A : B | C) <= I(A : B | C, D).

    The caller is responsible for supplying a distribution satisfying the
    independence premise, i.e. one where I(A : D | C) is 0.
    """
    lhs = conditional_mutual_information(distribution, [a], [b], [c])
    rhs = conditional_mutual_information(distribution, [a], [b], [c, d])
    return FactCheck("A.2 conditioning increases MI", lhs, rhs, lhs <= rhs + 1e-6)


def check_fact_a3(
    distribution: JointDistribution,
    a: str,
    b: str,
    c: str,
    d: str,
) -> FactCheck:
    """Fact A.3: if A ⊥ D | B, C then I(A : B | C) >= I(A : B | C, D)."""
    lhs = conditional_mutual_information(distribution, [a], [b], [c])
    rhs = conditional_mutual_information(distribution, [a], [b], [c, d])
    return FactCheck("A.3 conditioning decreases MI", lhs, rhs, lhs >= rhs - 1e-6)


def check_fact_a4(
    distribution: JointDistribution,
    a: str,
    b: str,
    c: str,
) -> FactCheck:
    """Fact A.4: I(A : B | C) <= I(A : B) + H(C)."""
    lhs = conditional_mutual_information(distribution, [a], [b], [c])
    rhs = mutual_information(distribution, [a], [b]) + entropy(distribution, [c])
    return FactCheck("A.4 conditioning bounded by H(C)", lhs, rhs, lhs <= rhs + 1e-6)
