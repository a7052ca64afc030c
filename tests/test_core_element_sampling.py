"""Unit tests for the Lemma 3.12 element sampling primitive."""

import random

import pytest

from repro.core.element_sampling import (
    element_sample,
    element_sample_mask,
    sampling_probability,
)
from repro.utils.bitset import bitset_to_set
from repro.utils.rng import RandomSource


class TestSamplingProbability:
    def test_formula(self):
        import math

        p = sampling_probability(1000, 50, 4, 0.5, constant=16.0)
        expected = 16.0 * 4 * math.log(50) / (0.5 * 1000)
        assert p == pytest.approx(min(1.0, expected))

    def test_capped_at_one(self):
        assert sampling_probability(10, 50, 4, 0.5) == 1.0

    def test_empty_universe(self):
        assert sampling_probability(0, 50, 4, 0.5) == 1.0

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            sampling_probability(100, 10, 2, 1.5)
        with pytest.raises(ValueError):
            sampling_probability(100, 10, 2, 0.0)

    def test_invalid_cover_bound(self):
        with pytest.raises(ValueError):
            sampling_probability(100, 10, 0, 0.5)

    def test_monotone_in_rho(self):
        loose = sampling_probability(10 ** 6, 100, 4, 0.5)
        tight = sampling_probability(10 ** 6, 100, 4, 0.05)
        assert tight > loose

    def test_tiny_m_clamped(self):
        # num_sets < 2 must not produce log(1) = 0 probability.
        assert sampling_probability(10 ** 6, 1, 1, 0.5) > 0


class TestElementSample:
    def test_probability_one_keeps_everything(self):
        sample = element_sample(range(100), 1.0, seed=1)
        assert sample == frozenset(range(100))

    def test_probability_zero_keeps_nothing(self):
        assert element_sample(range(100), 0.0, seed=1) == frozenset()

    def test_deterministic_given_seed(self):
        a = element_sample(range(1000), 0.3, seed=7)
        b = element_sample(range(1000), 0.3, seed=7)
        assert a == b

    def test_sample_is_subset(self):
        elements = set(range(50, 150))
        sample = element_sample(elements, 0.4, seed=3)
        assert sample <= elements

    def test_expected_size_roughly_right(self):
        sample = element_sample(range(10000), 0.2, seed=11)
        assert 1600 <= len(sample) <= 2400

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            element_sample(range(10), 1.5)
        with pytest.raises(ValueError):
            element_sample(range(10), -0.1)


def kept_by_loop(order, probability, seed):
    """The elements of ``order`` one ``random()`` draw each keeps."""
    engine = random.Random(seed)
    return [element for element in order if engine.random() < probability], engine


#: Sizes on both sides of ``random_array``'s minimum, and one far above.
SAMPLE_SIZES = [0, 1, 5, 223, 224, 225, 1000, 8100]


class TestBatchedEqualsLoop:
    """The vectorized selection and the loop keep what ``random()`` keeps."""

    @pytest.mark.parametrize("batching", ["on", "off"])
    @pytest.mark.parametrize("size", SAMPLE_SIZES)
    def test_element_sample(self, monkeypatch, size, batching):
        if batching == "off":
            monkeypatch.setenv("REPRO_SAMPLER_BATCH", "off")
        order = [3 * element + 1 for element in range(size)]
        for probability in (0.0, 0.3, 0.999):
            engine = random.Random(size)
            sample = element_sample(order, probability, seed=RandomSource(engine))
            kept, reference = kept_by_loop(order, probability, size)
            assert sample == frozenset(kept)
            assert engine.getstate() == reference.getstate()

    @pytest.mark.parametrize("batching", ["on", "off"])
    @pytest.mark.parametrize("size", SAMPLE_SIZES)
    def test_element_sample_mask(self, monkeypatch, size, batching):
        if batching == "off":
            monkeypatch.setenv("REPRO_SAMPLER_BATCH", "off")
        # Every other element of a wide universe: a set whose iteration
        # order is not ascending once it outgrows its hash table.
        mask = sum(1 << (2 * element + 700) for element in range(size))
        for probability in (0.0, 0.3, 0.999):
            engine = random.Random(size)
            sample = element_sample_mask(mask, probability, seed=RandomSource(engine))
            kept, reference = kept_by_loop(list(bitset_to_set(mask)), probability, size)
            assert sample == sum(1 << element for element in kept)
            assert engine.getstate() == reference.getstate()
