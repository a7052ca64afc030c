"""Unit tests for solution verification helpers."""

import pytest

from repro.setcover.verify import is_feasible_cover, verify_cover
from repro.utils.bitset import bitset_to_set


class TestUncoveredElements:
    def test_full_cover(self, tiny_system):
        assert bitset_to_set(tiny_system.uncovered_mask([0, 1])) == set()

    def test_partial_cover(self, tiny_system):
        assert bitset_to_set(tiny_system.uncovered_mask([0])) == {3, 4, 5}

    def test_empty_solution(self, tiny_system):
        assert bitset_to_set(tiny_system.uncovered_mask([])) == {0, 1, 2, 3, 4, 5}


class TestIsFeasible:
    def test_feasible(self, tiny_system):
        assert is_feasible_cover(tiny_system, [0, 1])

    def test_infeasible(self, tiny_system):
        assert not is_feasible_cover(tiny_system, [2, 3])


class TestVerifyCover:
    def test_accepts_valid(self, tiny_system):
        verify_cover(tiny_system, [0, 1])

    def test_rejects_incomplete(self, tiny_system):
        with pytest.raises(ValueError, match="missing"):
            verify_cover(tiny_system, [0])

    def test_rejects_out_of_range(self, tiny_system):
        with pytest.raises(ValueError, match="out of range"):
            verify_cover(tiny_system, [0, 99])

    def test_rejects_duplicates(self, tiny_system):
        with pytest.raises(ValueError, match="duplicate"):
            verify_cover(tiny_system, [0, 0, 1])
