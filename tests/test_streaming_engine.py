"""Unit tests for the multi-pass engine."""

import pytest

from repro.exceptions import PassBudgetExceededError, SpaceBudgetExceededError
from repro.baselines.saha_getoor import SahaGetoorGreedy
from repro.baselines.full_storage import StoreEverythingSetCover
from repro.streaming.algorithm_base import StreamingAlgorithm
from repro.streaming.engine import EngineConfig, MultiPassEngine, run_streaming_algorithm
from repro.streaming.stream import StreamOrder
from repro.workloads.random_instances import plant_cover_instance


class TestEngineRuns:
    def test_runs_and_verifies(self, planted_instance):
        result = run_streaming_algorithm(SahaGetoorGreedy(), planted_instance.system)
        assert result.passes == 1
        assert result.solution_size >= planted_instance.planted_opt

    def test_pass_budget_enforced(self, planted_instance):
        algorithm = StoreEverythingSetCover()
        with pytest.raises(PassBudgetExceededError):
            run_streaming_algorithm(
                algorithm, planted_instance.system, pass_budget=0
            )

    def test_verification_failure_raises(self, tiny_system):
        class BadAlgorithm(SahaGetoorGreedy):
            def run(self, stream):
                result = super().run(stream)
                result.solution = result.solution[:1]  # break the cover
                return result

        with pytest.raises(ValueError):
            run_streaming_algorithm(BadAlgorithm(), tiny_system)

    def test_verification_can_be_disabled(self, tiny_system):
        class BadAlgorithm(SahaGetoorGreedy):
            def run(self, stream):
                result = super().run(stream)
                result.solution = result.solution[:1]
                return result

        result = run_streaming_algorithm(
            BadAlgorithm(), tiny_system, verify_solution=False
        )
        assert result.solution_size == 1

    def test_random_order_seeded(self, planted_instance):
        result_a = run_streaming_algorithm(
            SahaGetoorGreedy(),
            planted_instance.system,
            order=StreamOrder.RANDOM,
            seed=4,
        )
        result_b = run_streaming_algorithm(
            SahaGetoorGreedy(),
            planted_instance.system,
            order=StreamOrder.RANDOM,
            seed=4,
        )
        assert result_a.solution == result_b.solution


class TestEmptySolutionVerification:
    def test_empty_cover_of_nonempty_universe_raises(self, tiny_system):
        """Regression: an empty solution must be verified like any other.

        The engine used to skip verification whenever ``result.solution`` was
        falsy, letting a broken algorithm report an unverified "cover" of
        size 0.
        """

        class EmptyAlgorithm(SahaGetoorGreedy):
            def run(self, stream):
                result = super().run(stream)
                result.solution = []
                return result

        with pytest.raises(ValueError, match="does not cover"):
            run_streaming_algorithm(EmptyAlgorithm(), tiny_system)

    def test_empty_cover_of_empty_universe_passes(self):
        from repro.setcover.instance import SetSystem

        class NoopAlgorithm(StreamingAlgorithm):
            def run(self, stream):
                for _ in stream.iterate_pass():
                    pass
                return self._finalize(stream, [])

        result = run_streaming_algorithm(NoopAlgorithm(), SetSystem(0, [[], []]))
        assert result.solution == []


class TestSpaceBudget:
    def test_space_budget_enforced(self, planted_instance):
        with pytest.raises(SpaceBudgetExceededError):
            run_streaming_algorithm(
                StoreEverythingSetCover(),
                planted_instance.system,
                space_budget=1,
            )

    def test_space_budget_allows_runs_within_bound(self, planted_instance):
        unbudgeted = run_streaming_algorithm(
            StoreEverythingSetCover(), planted_instance.system
        )
        budget = unbudgeted.space.peak_words
        result = run_streaming_algorithm(
            StoreEverythingSetCover(), planted_instance.system, space_budget=budget
        )
        assert result.solution == unbudgeted.solution
        # The budgeted meter's report is surfaced on the result.
        assert result.space.peak_words == budget

    def test_budgeted_run_does_not_leak_budget_into_next_run(self, planted_instance):
        """Regression: a stale engine-armed meter must not outlive its run."""
        algorithm = StoreEverythingSetCover()
        with pytest.raises(SpaceBudgetExceededError):
            run_streaming_algorithm(
                algorithm, planted_instance.system, space_budget=1
            )
        # The same instance run WITHOUT a budget must succeed (previously the
        # stale budgeted meter, charges included, raised again).
        result = run_streaming_algorithm(algorithm, planted_instance.system)
        assert result.solution

    def test_unbudgeted_rerun_reports_its_own_peak(self):
        """Regression: a second run must not report the first run's peak."""
        large = plant_cover_instance(200, 30, 4, seed=1).system
        small = plant_cover_instance(40, 10, 2, seed=2).system
        fresh = run_streaming_algorithm(StoreEverythingSetCover(), small)
        algorithm = StoreEverythingSetCover()
        run_streaming_algorithm(algorithm, large)
        rerun = run_streaming_algorithm(algorithm, small)
        assert fresh.space.peak_words == 127
        assert rerun.space == fresh.space
        assert algorithm.space.budget is None

    def test_space_budget_arms_fresh_meter_per_run(self, planted_instance):
        algorithm = StoreEverythingSetCover()
        engine = MultiPassEngine(EngineConfig(space_budget=10 ** 9))
        first = engine.run(algorithm, planted_instance.system)
        second = engine.run(algorithm, planted_instance.system)
        # A fresh meter per run: peaks do not accumulate across runs.
        assert first.space.peak_words == second.space.peak_words
        assert algorithm.space.budget == 10 ** 9


class TestEngineConfig:
    def test_engine_reusable(self, planted_instance, small_random_instance):
        engine = MultiPassEngine(EngineConfig())
        first = engine.run(SahaGetoorGreedy(), planted_instance.system)
        second = engine.run(SahaGetoorGreedy(), small_random_instance.system)
        assert first.solution_size > 0
        assert second.solution_size > 0

    def test_result_metadata_present(self, planted_instance):
        result = run_streaming_algorithm(SahaGetoorGreedy(), planted_instance.system)
        assert "uncovered_after_run" in result.metadata
        assert result.metadata["uncovered_after_run"] == 0
