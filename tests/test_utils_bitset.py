"""Unit tests for the bitset helpers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.element_sampling import element_sample, element_sample_mask
from repro.utils.bitset import (
    MAX_INSTANCE_BITS,
    MAX_UNIVERSE_SIZE,
    _TABLE_BITS_PER_SET_BIT,
    _TABLE_FIXED_SET_BITS,
    _TABLE_MIN_SET_BITS,
    _lowest_bits,
    _table_bits,
    bitset_from_indices,
    bitset_from_iterable,
    bitset_size,
    bitset_to_set,
    bitset_union,
    check_instance_bits,
    iter_bits,
    universe_mask,
)
from repro.utils.rng import RandomSource


class TestBitsetFromIndices:
    def test_matches_iterable_constructor(self):
        for elements in ([], [0], [3, 1, 4], [63, 64, 65], list(range(0, 200, 7))):
            assert bitset_from_indices(elements) == bitset_from_iterable(elements)

    def test_accepts_generators_and_sets(self):
        assert bitset_from_indices(e for e in (5, 2)) == 0b100100
        assert bitset_from_indices({5, 2}) == 0b100100

    def test_duplicates_collapse(self):
        assert bitset_from_indices([1, 1, 1]) == 0b10

    def test_negative_element_rejected(self):
        with pytest.raises(ValueError):
            bitset_from_indices([3, -1])
        with pytest.raises(ValueError):
            bitset_from_indices([-2])


class TestBitsetFromIterable:
    def test_empty(self):
        assert bitset_from_iterable([]) == 0

    def test_single_element(self):
        assert bitset_from_iterable([3]) == 0b1000

    def test_multiple_elements(self):
        assert bitset_from_iterable([0, 2, 5]) == 0b100101

    def test_duplicates_collapse(self):
        assert bitset_from_iterable([1, 1, 1]) == 0b10

    def test_negative_element_rejected(self):
        with pytest.raises(ValueError):
            bitset_from_iterable([-1])


class TestRoundTrip:
    def test_to_set_round_trip(self):
        elements = {0, 7, 13, 64, 200}
        assert bitset_to_set(bitset_from_iterable(elements)) == elements

    def test_iter_bits_sorted(self):
        mask = bitset_from_iterable([9, 2, 30])
        assert list(iter_bits(mask)) == [2, 9, 30]

    def test_zero_mask_iterates_nothing(self):
        assert list(iter_bits(0)) == []


class TestSizeAndOps:
    def test_size_empty(self):
        assert bitset_size(0) == 0

    def test_size_counts_bits(self):
        assert bitset_size(0b101101) == 4

    def test_union(self):
        assert bitset_union(0b001, 0b100) == 0b101

    def test_union_of_none(self):
        assert bitset_union() == 0


class TestInstanceBits:
    def test_rows_are_charged_in_whole_words(self):
        rows = MAX_INSTANCE_BITS // 64
        check_instance_bits(64, rows)
        check_instance_bits(0, rows)  # an empty row still takes one word
        with pytest.raises(ValueError, match="over the limit"):
            check_instance_bits(0, rows + 1)
        with pytest.raises(ValueError, match="over the limit"):
            check_instance_bits(65, rows // 2 + 1)

    def test_universe_bound_leaves_room_for_a_few_rows(self):
        rows = MAX_INSTANCE_BITS // MAX_UNIVERSE_SIZE
        check_instance_bits(MAX_UNIVERSE_SIZE, rows)
        with pytest.raises(ValueError, match="over the limit"):
            check_instance_bits(MAX_UNIVERSE_SIZE, rows + 1)


class TestPopcountImplementations:
    def test_fallback_matches_fast_path(self):
        from repro.utils.bitset import _popcount_fallback

        for mask in (0, 1, 0b101101, (1 << 200) - 1, 1 << 999):
            assert _popcount_fallback(mask) == bitset_size(mask)

    def test_large_sparse_iteration(self):
        # The lowest-set-bit iteration must stay O(popcount) semantics-wise:
        # three bits far apart come back sorted without scanning the gaps.
        mask = (1 << 5) | (1 << 3000) | (1 << 70000)
        assert list(iter_bits(mask)) == [5, 3000, 70000]


class TestUniverseMask:
    def test_zero_universe(self):
        assert universe_mask(0) == 0

    def test_small_universe(self):
        assert universe_mask(4) == 0b1111

    def test_size_matches(self):
        assert bitset_size(universe_mask(97)) == 97

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            universe_mask(-1)


def lowest_bit_loop(mask):
    """The decoder ``iter_bits`` ran before the byte table, kept as the oracle."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def oracle_masks():
    """``(width, mask)``: sparse and dense masks of every width class to 4096.

    Every width up to 130 (each byte and the first two 64-bit words), and
    each 64-bit boundary up to 4096 with its neighbours.  Per width: the
    full mask, the top bit alone, random masks at four densities, and masks
    holding exactly one bit fewer, as many and one more than the popcount
    from which ``iter_bits`` switches to the byte table.
    """
    rng = random.Random(20170517)
    boundaries = {w + d for w in range(128, 4097, 64) for d in (-1, 0, 1)}
    for width in sorted(set(range(131)) | boundaries - {4097}):
        yield width, (1 << width) - 1
        if not width:
            continue
        top = 1 << (width - 1)
        yield width, top
        for density in (1 / 64, 1 / 32, 1 / 2, 15 / 16):
            yield width, top | sum(1 << b for b in range(width) if rng.random() < density)
        crossover = min(
            _TABLE_FIXED_SET_BITS + -(-width // _TABLE_BITS_PER_SET_BIT), _TABLE_MIN_SET_BITS
        )
        for count in (crossover - 1, crossover, crossover + 1):
            if 1 <= count <= width:
                bits = rng.sample(range(width - 1), count - 1) + [width - 1]
                yield width, sum(1 << b for b in bits)


class TestDecodeAgainstLowestBitLoop:
    def test_both_decoders_and_iter_bits_match_the_loop(self):
        for width, mask in oracle_masks():
            expected = list(lowest_bit_loop(mask))
            assert _table_bits(mask) == expected, (width, mask)
            assert list(_lowest_bits(mask)) == expected, (width, mask)
            assert list(iter_bits(mask)) == expected, (width, mask)

    def test_set_iteration_order_matches_the_loop(self):
        # Samplers draw in the set's iteration order, which follows the
        # insertion order once elements outgrow the hash table.
        for width, mask in oracle_masks():
            assert list(bitset_to_set(mask)) == list(set(lowest_bit_loop(mask))), width

    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(min_value=0, max_value=4096),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_random_masks_match_the_loop(self, width, density, seed):
        rng = random.Random(seed)
        mask = sum(1 << b for b in range(width) if rng.random() < density)
        assert list(iter_bits(mask)) == list(lowest_bit_loop(mask))
        assert list(bitset_to_set(mask)) == list(set(lowest_bit_loop(mask)))

    def test_element_sample_mask_draws_in_the_loop_sets_order(self):
        for index, (width, mask) in enumerate(oracle_masks()):
            if index % 7:
                continue
            for probability in (0.0, 0.3, 1.0):
                expected_rng, rng = RandomSource(index), RandomSource(index)
                expected = element_sample(
                    set(lowest_bit_loop(mask)), probability, seed=expected_rng
                )
                sampled = element_sample_mask(mask, probability, seed=rng)
                assert sampled == bitset_from_iterable(expected), (width, probability)
                assert rng.random() == expected_rng.random()
