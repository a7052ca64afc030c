"""Unit tests for mapping-extensions (Definition 3)."""

import random

import pytest

from repro.exceptions import DistributionError
from repro.lowerbound.mapping_extension import (
    MappingExtension,
    mapping_permutation,
    random_mapping_extension,
)
from repro.utils.rng import RandomSource


class TestRandomMappingExtension:
    def test_blocks_partition_universe(self):
        mapping = random_mapping_extension(60, 6, seed=1)
        union = set()
        for i in range(6):
            block = mapping.image(i)
            assert not (union & block)
            union |= block
        assert union == set(range(60))

    def test_block_sizes_balanced(self):
        mapping = random_mapping_extension(64, 6, seed=2)
        sizes = [len(mapping.image(i)) for i in range(6)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 64

    def test_exact_division(self):
        mapping = random_mapping_extension(30, 5, seed=3)
        assert mapping.block_size == 6
        assert mapping.t == 5

    def test_extend_union(self):
        mapping = random_mapping_extension(20, 4, seed=4)
        extended = mapping.extend([0, 2])
        assert extended == mapping.image(0) | mapping.image(2)

    def test_extend_mask_matches_extend(self):
        from repro.utils.bitset import bitset_to_set

        mapping = random_mapping_extension(20, 4, seed=5)
        assert bitset_to_set(mapping.extend_mask([1, 3])) == set(mapping.extend([1, 3]))

    def test_extend_empty(self):
        mapping = random_mapping_extension(12, 3, seed=6)
        assert mapping.extend([]) == frozenset()

    def test_determinism(self):
        a = random_mapping_extension(30, 5, seed=9)
        b = random_mapping_extension(30, 5, seed=9)
        assert a.blocks == b.blocks

    def test_invalid_parameters(self):
        with pytest.raises(DistributionError):
            random_mapping_extension(5, 0)
        with pytest.raises(DistributionError):
            random_mapping_extension(5, 6)


class TestMappingExtensionValidation:
    def test_overlapping_blocks_rejected(self):
        with pytest.raises(DistributionError):
            MappingExtension(4, (frozenset({0, 1}), frozenset({1, 2})))

    def test_empty_block_rejected(self):
        with pytest.raises(DistributionError):
            MappingExtension(4, (frozenset(), frozenset({1})))

    def test_out_of_universe_rejected(self):
        with pytest.raises(DistributionError):
            MappingExtension(3, (frozenset({5}),))


class TestMappingPermutation:
    """The permutation is the stable argsort of n ``random()`` draws."""

    @pytest.mark.parametrize("batching", ["on", "off"])
    @pytest.mark.parametrize("universe_size", [1, 2, 63, 64, 223, 224, 900, 4096])
    def test_equals_argsort_of_random_calls(self, monkeypatch, universe_size, batching):
        if batching == "off":
            monkeypatch.setenv("REPRO_SAMPLER_BATCH", "off")
        engine, reference = random.Random(universe_size), random.Random(universe_size)
        permutation = mapping_permutation(universe_size, RandomSource(engine))
        floats = [reference.random() for _ in range(universe_size)]
        assert permutation == sorted(range(universe_size), key=floats.__getitem__)
        assert engine.getstate() == reference.getstate()
