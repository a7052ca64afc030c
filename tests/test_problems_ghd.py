"""Unit tests for the gap-hamming-distance problem and its distributions."""

import math

import pytest

from repro.exceptions import DistributionError
from repro.problems.ghd import (
    GHDInstance,
    default_set_sizes,
    ghd_answer,
    sample_dghd,
    sample_dghd_no,
    sample_dghd_yes,
)
from repro.utils.rng import RandomSource


class TestBasics:
    def test_hamming_distance(self):
        assert GHDInstance(4, frozenset({1, 2}), frozenset({2, 3})).distance == 2
        assert GHDInstance(4, frozenset(), frozenset()).distance == 0

    def test_answer_yes(self):
        t = 16
        instance = GHDInstance(t, frozenset(range(8)), frozenset(range(8, 16)))
        assert instance.distance == 16
        assert ghd_answer(instance) == "Yes"

    def test_answer_no(self):
        t = 16
        same = frozenset(range(8))
        instance = GHDInstance(t, same, same)
        assert ghd_answer(instance) == "No"

    def test_answer_gap(self):
        t = 100
        alice = frozenset(range(50))
        bob = frozenset(range(25, 75))
        instance = GHDInstance(t, alice, bob)
        assert abs(instance.distance - 50) < 10
        assert ghd_answer(instance) == "*"

    def test_default_set_sizes(self):
        assert default_set_sizes(10) == (5, 5)
        assert default_set_sizes(1) == (1, 1)


class TestSamplers:
    def test_yes_sampler_respects_gap(self):
        rng = RandomSource(2)
        t = 36
        for _ in range(20):
            instance = sample_dghd_yes(t, seed=rng.spawn())
            assert instance.distance >= t / 2 + math.sqrt(t)
            assert instance.label == "Yes"

    def test_no_sampler_respects_gap(self):
        rng = RandomSource(3)
        t = 36
        for _ in range(20):
            instance = sample_dghd_no(t, seed=rng.spawn())
            assert instance.distance <= t / 2 - math.sqrt(t)
            assert instance.label == "No"

    def test_fixed_sizes(self):
        instance = sample_dghd_yes(30, a=10, b=12, seed=4)
        assert len(instance.alice) == 10
        assert len(instance.bob) == 12

    def test_mixture_sampler_labels(self):
        rng = RandomSource(5)
        labels = {sample_dghd(25, seed=rng.spawn()).label for _ in range(30)}
        assert labels == {"Yes", "No"}

    def test_invalid_sizes_rejected(self):
        with pytest.raises(DistributionError):
            sample_dghd_yes(10, a=11, b=5)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            sample_dghd_yes(0)

    def test_impossible_condition_raises(self):
        # With a = b = t the two sets are equal, so a Yes (large-distance)
        # instance can never be sampled.
        with pytest.raises(DistributionError):
            sample_dghd_yes(9, a=9, b=9, max_attempts=50)
