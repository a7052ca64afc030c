"""Unit tests for the offline maximum coverage solvers."""

import pytest

from repro.setcover.instance import SetSystem
from repro.setcover.maxcover import exact_max_coverage, greedy_max_coverage


class TestGreedyMaxCoverage:
    def test_full_cover_when_k_large(self, tiny_system):
        chosen, value = greedy_max_coverage(tiny_system, k=6)
        assert value == 6

    def test_k_one_picks_largest(self, tiny_system):
        chosen, value = greedy_max_coverage(tiny_system, k=1)
        assert value == 4  # the {0,1,2,3} set
        assert chosen == [5]

    def test_k_zero(self, tiny_system):
        chosen, value = greedy_max_coverage(tiny_system, k=0)
        assert chosen == [] and value == 0

    def test_negative_k_rejected(self, tiny_system):
        with pytest.raises(ValueError):
            greedy_max_coverage(tiny_system, k=-1)

    def test_one_minus_one_over_e_guarantee(self, planted_instance):
        k = 3
        _, greedy_value = greedy_max_coverage(planted_instance.system, k)
        _, exact_value = exact_max_coverage(planted_instance.system, k)
        assert greedy_value >= (1 - 1 / 2.718281828) * exact_value

    def test_stops_when_no_gain(self):
        system = SetSystem(3, [[0, 1, 2], [0], [1]])
        chosen, value = greedy_max_coverage(system, k=3)
        assert value == 3
        assert len(chosen) == 1  # further sets add nothing


class TestExactMaxCoverage:
    def test_exact_at_least_greedy(self, tiny_system):
        for k in (1, 2, 3):
            _, greedy_value = greedy_max_coverage(tiny_system, k)
            _, exact_value = exact_max_coverage(tiny_system, k)
            assert exact_value >= greedy_value

    def test_exact_k2_on_tiny(self, tiny_system):
        chosen, value = exact_max_coverage(tiny_system, 2)
        assert value == 6
        assert len(chosen) == 2

    def test_candidate_restriction(self, tiny_system):
        chosen, value = exact_max_coverage(tiny_system, 2, candidate_indices=[2, 3, 4])
        assert set(chosen) <= {2, 3, 4}
        assert value == 4

    def test_k_exceeding_sets(self):
        system = SetSystem(4, [[0, 1], [2]])
        chosen, value = exact_max_coverage(system, k=5)
        assert value == 3
        assert len(chosen) == 2

    def test_negative_k_rejected(self, tiny_system):
        with pytest.raises(ValueError):
            exact_max_coverage(tiny_system, -2)


class TestCoverageOf:
    def test_matches_system_coverage(self, tiny_system):
        union = tiny_system.elements(0) | tiny_system.elements(2)
        assert tiny_system.coverage([0, 2]) == len(union)

    def test_empty(self, tiny_system):
        assert tiny_system.coverage([]) == 0
