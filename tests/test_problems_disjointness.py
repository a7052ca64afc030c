"""Unit tests for the set disjointness problem and D_Disj."""

import pytest

from repro.problems.disjointness import (
    DisjointnessInstance,
    enumerate_ddisj_support,
    sample_ddisj,
    sample_ddisj_no,
    sample_ddisj_yes,
)
from repro.utils.rng import RandomSource


class TestInstanceBasics:
    def test_answer_disjoint(self):
        instance = DisjointnessInstance(4, frozenset({0}), frozenset({1}))
        assert instance.is_disjoint

    def test_answer_intersecting(self):
        instance = DisjointnessInstance(4, frozenset({0, 2}), frozenset({2}))
        assert not instance.is_disjoint
        assert instance.intersection == frozenset({2})


class TestSamplers:
    def test_yes_instances_disjoint(self):
        rng = RandomSource(1)
        for _ in range(50):
            instance = sample_ddisj_yes(10, seed=rng.spawn())
            assert instance.is_disjoint
            assert instance.z == 0

    def test_no_instances_have_single_intersection(self):
        rng = RandomSource(2)
        for _ in range(50):
            instance = sample_ddisj_no(10, seed=rng.spawn())
            assert len(instance.intersection) == 1
            assert instance.z == 1
            assert instance.planted_element in instance.intersection

    def test_mixed_sampler_label_consistent(self):
        rng = RandomSource(3)
        for _ in range(50):
            instance = sample_ddisj(8, seed=rng.spawn())
            if instance.z == 0:
                assert instance.is_disjoint
            else:
                assert len(instance.intersection) == 1

    def test_subsets_of_universe(self):
        instance = sample_ddisj(12, seed=5)
        assert instance.alice <= frozenset(range(12))
        assert instance.bob <= frozenset(range(12))

    def test_element_survival_rate(self):
        # Each element stays in A with probability 1/3 (before planting).
        rng = RandomSource(4)
        total = 0
        trials = 200
        t = 20
        for _ in range(trials):
            instance = sample_ddisj_yes(t, seed=rng.spawn())
            total += len(instance.alice)
        mean = total / trials
        assert t / 3 - 1.5 <= mean <= t / 3 + 1.5

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            sample_ddisj(0)
        with pytest.raises(ValueError):
            sample_ddisj_yes(0)
        with pytest.raises(ValueError):
            sample_ddisj_no(0)


class TestSupportEnumeration:
    def test_probabilities_sum_to_one(self):
        total = sum(p for _, _, _, p in enumerate_ddisj_support(3))
        assert total == pytest.approx(1.0)

    def test_z_split_is_even(self):
        yes_mass = sum(p for _, _, z, p in enumerate_ddisj_support(3) if z == 0)
        assert yes_mass == pytest.approx(0.5)

    def test_z_zero_outcomes_disjoint(self):
        for alice, bob, z, _ in enumerate_ddisj_support(2):
            if z == 0:
                assert not (alice & bob)
            else:
                assert len(alice & bob) >= 1

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            list(enumerate_ddisj_support(0))
