"""Unit tests for the õpt-guessing wrapper."""

import pytest

from repro.core.guessing import OptGuessingSetCover, geometric_guesses
from repro.setcover.verify import is_feasible_cover
from repro.streaming.engine import run_streaming_algorithm
from repro.workloads.random_instances import disjoint_blocks_instance


class TestGeometricGuesses:
    def test_starts_at_one_and_covers_n(self):
        guesses = geometric_guesses(100, 0.5)
        assert guesses[0] == 1
        assert guesses[-1] >= 100

    def test_strictly_increasing(self):
        guesses = geometric_guesses(1000, 0.25)
        assert all(b > a for a, b in zip(guesses, guesses[1:]))

    def test_count_is_logarithmic(self):
        import math

        guesses = geometric_guesses(10 ** 6, 0.5)
        assert len(guesses) <= 3 * math.log(10 ** 6) / 0.5

    def test_tiny_universe(self):
        assert geometric_guesses(1, 0.5) == [1]
        assert geometric_guesses(0, 0.5) == [1]


class TestOptGuessingSetCover:
    def test_finds_feasible_cover_without_opt(self, planted_instance):
        algorithm = OptGuessingSetCover(alpha=2, epsilon=0.5, seed=3)
        result = run_streaming_algorithm(algorithm, planted_instance.system)
        assert is_feasible_cover(planted_instance.system, result.solution)

    def test_solution_close_to_planted_opt(self, planted_instance):
        algorithm = OptGuessingSetCover(alpha=2, epsilon=0.5, seed=3)
        result = run_streaming_algorithm(algorithm, planted_instance.system)
        opt = planted_instance.planted_opt
        assert result.solution_size <= (2 + 0.5) * opt + opt

    def test_exact_on_disjoint_blocks(self):
        instance = disjoint_blocks_instance(36, 6, seed=8)
        algorithm = OptGuessingSetCover(alpha=2, epsilon=0.5, seed=1)
        result = run_streaming_algorithm(algorithm, instance.system)
        assert result.solution_size == 6

    def test_metadata_reports_guesses(self, planted_instance):
        algorithm = OptGuessingSetCover(alpha=2, epsilon=0.5, seed=3)
        result = run_streaming_algorithm(algorithm, planted_instance.system)
        assert result.metadata["guesses"][0] == 1
        assert result.metadata["winning_guess"] is not None
        assert len(result.metadata["outcomes"]) == len(result.metadata["guesses"])

    def test_pass_count_bounded_by_single_run(self, planted_instance):
        algorithm = OptGuessingSetCover(alpha=2, epsilon=0.5, seed=3)
        result = run_streaming_algorithm(algorithm, planted_instance.system)
        # Parallel guesses share physical passes: 2α+1 plus optional clean-up.
        assert result.passes <= 2 * 2 + 1 + 1
