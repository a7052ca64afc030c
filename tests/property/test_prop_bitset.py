"""Property-based tests for the bitset helpers.

The program intersects and subtracts masks with ``&`` and ``& ~``; the
properties below check that this algebra is set algebra on the encoding.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bitset import (
    bitset_from_iterable,
    bitset_size,
    bitset_to_set,
    bitset_union,
    universe_mask,
)

element_sets = st.sets(st.integers(min_value=0, max_value=200), max_size=60)


class TestBitsetProperties:
    @given(element_sets)
    def test_round_trip(self, elements):
        assert bitset_to_set(bitset_from_iterable(elements)) == elements

    @given(element_sets)
    def test_size_matches_cardinality(self, elements):
        assert bitset_size(bitset_from_iterable(elements)) == len(elements)

    @given(element_sets, element_sets)
    def test_union_matches_set_union(self, a, b):
        mask = bitset_union(bitset_from_iterable(a), bitset_from_iterable(b))
        assert bitset_to_set(mask) == a | b

    @given(element_sets, element_sets)
    def test_intersection_matches_set_intersection(self, a, b):
        mask = bitset_from_iterable(a) & bitset_from_iterable(b)
        assert bitset_to_set(mask) == a & b

    @given(element_sets, element_sets)
    def test_difference_matches_set_difference(self, a, b):
        mask = bitset_from_iterable(a) & ~bitset_from_iterable(b)
        assert bitset_to_set(mask) == a - b

    @given(st.integers(min_value=0, max_value=300))
    def test_universe_mask_size(self, n):
        assert bitset_size(universe_mask(n)) == n

    @given(element_sets, element_sets)
    def test_de_morgan_within_universe(self, a, b):
        n = 201
        full = universe_mask(n)
        mask_a = bitset_from_iterable(a)
        mask_b = bitset_from_iterable(b)
        lhs = full & ~(mask_a | mask_b)
        rhs = (full & ~mask_a) & (full & ~mask_b)
        assert lhs == rhs
