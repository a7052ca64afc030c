"""Unit tests for JointDistribution."""

import pytest

from repro.infotheory.distributions import JointDistribution


@pytest.fixture
def xor_joint():
    """Uniform (A, B) with C = A xor B."""
    pmf = {}
    for a in (0, 1):
        for b in (0, 1):
            pmf[(a, b, a ^ b)] = 0.25
    return JointDistribution(["A", "B", "C"], pmf)


class TestConstruction:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            JointDistribution(["X"], {(0,): 0.4})

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution(["X"], {(0,): 1.5, (1,): -0.5})

    def test_duplicate_variable_names_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution(["X", "X"], {(0, 0): 1.0})

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution(["X", "Y"], {(0,): 1.0})

    def test_zero_mass_entries_dropped(self):
        joint = JointDistribution(["X"], {(0,): 1.0, (1,): 0.0})
        assert joint.support() == [(0,)]

    def test_from_samples(self):
        joint = JointDistribution.from_samples(["X"], [(0,), (0,), (1,), (1,)])
        assert joint.probability((0,)) == pytest.approx(0.5)

    def test_from_samples_empty_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution.from_samples(["X"], [])

    def test_uniform(self):
        joint = JointDistribution.uniform(["X", "Y"], [(0, 0), (1, 1)])
        assert joint.probability((0, 0)) == pytest.approx(0.5)

    def test_uniform_empty_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution.uniform(["X"], [])


class TestMarginalAndConditioning:
    def test_marginal(self, xor_joint):
        marginal = xor_joint.marginal(["A"])
        assert marginal.probability((0,)) == pytest.approx(0.5)
        assert marginal.probability((1,)) == pytest.approx(0.5)

    def test_marginal_order(self, xor_joint):
        marginal = xor_joint.marginal(["C", "A"])
        assert marginal.probability((1, 0)) == pytest.approx(0.25)

    def test_marginal_unknown_variable(self, xor_joint):
        with pytest.raises(KeyError):
            xor_joint.marginal(["Z"])

    def test_map_variable(self, xor_joint):
        mapped = xor_joint.map_variable("C", "NotC", lambda c: 1 - c)
        assert mapped.variables == ["A", "B", "NotC"]
        assert mapped.probability((0, 0, 1)) == pytest.approx(0.25)

    def test_product(self):
        x = JointDistribution(["X"], {(0,): 0.5, (1,): 0.5})
        y = JointDistribution(["Y"], {("a",): 1.0})
        product = x.product(y)
        assert product.probability((0, "a")) == pytest.approx(0.5)

    def test_product_overlap_rejected(self):
        x = JointDistribution(["X"], {(0,): 1.0})
        with pytest.raises(ValueError):
            x.product(x)
