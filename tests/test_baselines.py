"""Unit tests for the prior-work baseline streaming algorithms."""

import pytest

from repro.baselines.demaine import ProgressiveGreedyPasses
from repro.baselines.emek_rosen import EmekRosenSemiStreaming
from repro.baselines.full_storage import StoreEverythingSetCover
from repro.baselines.har_peled import IterativePruningSetCover, har_peled_space_words
from repro.baselines.saha_getoor import SahaGetoorGreedy
from repro.setcover.verify import is_feasible_cover
from repro.streaming.engine import run_streaming_algorithm
from repro.workloads.random_instances import plant_cover_instance


class TestSahaGetoor:
    def test_single_pass_feasible(self, planted_instance):
        result = run_streaming_algorithm(SahaGetoorGreedy(), planted_instance.system)
        assert result.passes == 1
        assert is_feasible_cover(planted_instance.system, result.solution)

    def test_threshold_variant(self, planted_instance):
        algorithm = SahaGetoorGreedy(threshold_fraction=0.05)
        result = run_streaming_algorithm(
            algorithm, planted_instance.system, verify_solution=False
        )
        assert result.passes == 1

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SahaGetoorGreedy(threshold_fraction=1.0)


class TestEmekRosen:
    def test_single_pass_feasible(self, planted_instance):
        result = run_streaming_algorithm(
            EmekRosenSemiStreaming(), planted_instance.system
        )
        assert result.passes == 1
        assert is_feasible_cover(planted_instance.system, result.solution)

    def test_space_is_linear_in_n(self, planted_instance):
        result = run_streaming_algorithm(
            EmekRosenSemiStreaming(), planted_instance.system
        )
        n = planted_instance.universe_size
        assert result.space.peak_by_category["per_element_state"] == 2 * n


class TestProgressiveGreedy:
    def test_feasible_given_enough_passes(self, planted_instance):
        algorithm = ProgressiveGreedyPasses(num_passes=5)
        result = run_streaming_algorithm(algorithm, planted_instance.system)
        assert is_feasible_cover(planted_instance.system, result.solution)
        assert result.passes <= 5

    def test_single_pass_equals_threshold_one(self, planted_instance):
        algorithm = ProgressiveGreedyPasses(num_passes=1)
        result = run_streaming_algorithm(algorithm, planted_instance.system)
        assert is_feasible_cover(planted_instance.system, result.solution)

    def test_invalid_passes(self):
        with pytest.raises(ValueError):
            ProgressiveGreedyPasses(num_passes=0)


class TestIterativePruning:
    def test_feasible(self, planted_instance):
        algorithm = IterativePruningSetCover(
            alpha=2, opt_guess=planted_instance.planted_opt, seed=2
        )
        result = run_streaming_algorithm(algorithm, planted_instance.system)
        assert is_feasible_cover(planted_instance.system, result.solution)

    def test_stores_more_than_algorithm1_at_scale(self):
        from repro.core.algorithm1 import AlgorithmOneConfig, StreamingSetCover

        instance = plant_cover_instance(2048, 40, 3, seed=21)
        ours = StreamingSetCover(
            AlgorithmOneConfig(
                alpha=3, opt_guess=3, epsilon=0.5, sampling_constant=1.0,
                subinstance_solver="greedy",
            ),
            seed=5,
        )
        theirs = IterativePruningSetCover(
            alpha=3, opt_guess=3, epsilon=0.5, sampling_constant=1.0, seed=5
        )
        ours_result = run_streaming_algorithm(ours, instance.system)
        theirs_result = run_streaming_algorithm(theirs, instance.system)
        ours_stored = ours_result.space.peak_by_category.get("stored_incidences", 0)
        theirs_stored = theirs_result.space.peak_by_category.get("stored_incidences", 0)
        assert theirs_stored >= ours_stored

    def test_space_formula_monotone(self):
        assert har_peled_space_words(4096, 50, 2) > har_peled_space_words(1024, 50, 2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            IterativePruningSetCover(alpha=0, opt_guess=1)
        with pytest.raises(ValueError):
            IterativePruningSetCover(alpha=1, opt_guess=0)


class TestStoreEverything:
    def test_setcover_single_pass_optimalish(self, planted_instance):
        algorithm = StoreEverythingSetCover(solver="exact")
        result = run_streaming_algorithm(algorithm, planted_instance.system)
        assert result.passes == 1
        assert result.solution_size == planted_instance.planted_opt

    def test_setcover_space_is_input_size(self, planted_instance):
        system = planted_instance.system
        result = run_streaming_algorithm(StoreEverythingSetCover(), system)
        assert result.space.peak_by_category["stored_incidences"] == sum(
            system.set_size(i) for i in range(system.num_sets)
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            StoreEverythingSetCover(solver="none")
