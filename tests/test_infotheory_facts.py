"""Unit tests for the Appendix A fact checkers and Claim 2.3 / information cost."""

import pytest

from repro.infotheory.distributions import JointDistribution
from repro.infotheory.entropy import conditional_mutual_information
from repro.infotheory.facts import (
    check_fact_a2,
    check_fact_a3,
    check_fact_a4,
    check_fact_chain_rule,
    check_fact_conditioning_reduces_entropy,
    check_fact_entropy_bounds,
    check_fact_mi_nonnegative,
)
from repro.infotheory.information_cost import (
    information_cost_of_randomized_protocol,
    internal_information_cost,
    transcript_information_cost,
)


@pytest.fixture
def correlated_joint():
    """Three correlated bits: B = A with noise, C independent."""
    pmf = {}
    for a in (0, 1):
        for c in (0, 1):
            pmf[(a, a, c)] = 0.4 / 2
            pmf[(a, 1 - a, c)] = 0.1 / 2
    return JointDistribution(["A", "B", "C"], pmf)


class TestFactCheckers:
    def test_entropy_bounds(self, correlated_joint):
        assert check_fact_entropy_bounds(correlated_joint, "A")

    def test_mi_nonnegative(self, correlated_joint):
        assert check_fact_mi_nonnegative(correlated_joint, ["A"], ["B"])

    def test_conditioning_reduces_entropy(self, correlated_joint):
        assert check_fact_conditioning_reduces_entropy(
            correlated_joint, "A", ["C"], ["B"]
        )

    def test_chain_rule(self, correlated_joint):
        assert check_fact_chain_rule(correlated_joint, "A", "B", "C")

    def test_fact_a4(self, correlated_joint):
        assert check_fact_a4(correlated_joint, "A", "B", "C")

    def test_fact_a2_with_premise(self):
        # D independent of A given C: build A -> B and D = C.
        pmf = {}
        for a in (0, 1):
            for c in (0, 1):
                pmf[(a, a, c, c)] = 0.25
        joint = JointDistribution(["A", "B", "C", "D"], pmf)
        assert conditional_mutual_information(joint, ["A"], ["D"], ["C"]) == pytest.approx(0.0)
        assert check_fact_a2(joint, "A", "B", "C", "D")

    def test_fact_a3_with_premise(self):
        # D a function of B (so A ⊥ D | B, C).
        pmf = {}
        for a in (0, 1):
            for b in (0, 1):
                pmf[(a, b, 0, b)] = 0.25
        joint = JointDistribution(["A", "B", "C", "D"], pmf)
        assert conditional_mutual_information(
            joint, ["A"], ["D"], ["B", "C"]
        ) == pytest.approx(0.0)
        assert check_fact_a3(joint, "A", "B", "C", "D")

    def test_fact_check_is_truthy(self, correlated_joint):
        check = check_fact_mi_nonnegative(correlated_joint, ["A"], ["B"])
        assert bool(check) is True
        assert check.name.startswith("A.1")


class TestInformationCost:
    def test_deterministic_protocol_cost(self):
        # Alice sends her bit: the transcript reveals exactly H(X) = 1 bit to
        # Bob and nothing about Bob's input to Alice.
        inputs = [(x, y, 0.25) for x in (0, 1) for y in (0, 1)]
        cost = internal_information_cost(inputs, lambda x, y: x)
        assert cost == pytest.approx(1.0)

    def test_silent_protocol_zero_cost(self):
        inputs = [(x, y, 0.25) for x in (0, 1) for y in (0, 1)]
        cost = internal_information_cost(inputs, lambda x, y: "nothing")
        assert cost == pytest.approx(0.0)

    def test_full_exchange_cost(self):
        inputs = [(x, y, 0.25) for x in (0, 1) for y in (0, 1)]
        cost = internal_information_cost(inputs, lambda x, y: (x, y))
        assert cost == pytest.approx(2.0)

    def test_transcript_information_cost_validates_variables(self):
        joint = JointDistribution(["X", "Y"], {(0, 0): 1.0})
        with pytest.raises(ValueError):
            transcript_information_cost(joint)

    def test_randomized_protocol_cost_at_most_deterministic(self):
        # XOR-masking Alice's bit with public randomness still reveals the bit
        # given the randomness (Claim 2.3): cost stays 1.
        inputs = [(x, y, 0.25) for x in (0, 1) for y in (0, 1)]
        randomness = [(0, 0.5), (1, 0.5)]
        cost = information_cost_of_randomized_protocol(
            inputs, randomness, lambda x, y, r: x ^ r
        )
        assert cost == pytest.approx(1.0)

    def test_correlation_reduces_internal_cost(self):
        # When Bob already knows Alice's input (perfect correlation), sending
        # it reveals nothing new: internal cost is 0.
        inputs = [(0, 0, 0.5), (1, 1, 0.5)]
        cost = internal_information_cost(inputs, lambda x, y: x)
        assert cost == pytest.approx(0.0)
