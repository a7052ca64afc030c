"""Integration tests crossing module boundaries (stream → algorithm → verify,
distribution → protocol → reduction, workload → baselines comparison)."""

import pytest

from repro import (
    OptGuessingSetCover,
    StreamOrder,
    exact_cover_value,
    greedy_set_cover,
    is_feasible_cover,
    plant_cover_instance,
    run_streaming_algorithm,
)
from repro.baselines import SahaGetoorGreedy, StoreEverythingSetCover
from repro.communication.protocols.setcover_protocol import (
    FullExchangeSetCoverProtocol,
    TwoPartyAlgorithmOneProtocol,
)
from repro.core.algorithm1 import AlgorithmOneConfig, StreamingSetCover
from repro.lowerbound.dsc import DSCParameters, sample_dsc_random_partition
from repro.workloads.adversarial import dsc_stream_instance
from repro.workloads.random_instances import zipfian_instance


class TestPublicApiPipeline:
    """Exercise the package-level quickstart workflow end to end."""

    def test_quickstart_flow(self):
        instance = plant_cover_instance(
            universe_size=128, num_sets=40, cover_size=4, seed=7
        )
        algorithm = OptGuessingSetCover(alpha=2, epsilon=0.5, seed=7)
        result = run_streaming_algorithm(algorithm, instance.system)
        assert is_feasible_cover(instance.system, result.solution)
        assert result.solution_size <= 3 * instance.planted_opt

    def test_streaming_vs_offline_on_zipf(self):
        instance = zipfian_instance(120, 40, set_size=15, seed=3)
        offline = greedy_set_cover(instance.system)
        streaming = run_streaming_algorithm(
            OptGuessingSetCover(alpha=2, epsilon=0.5, seed=3), instance.system
        )
        # The streaming (α = 2)-approximation should not be drastically worse
        # than offline greedy on a benign workload.
        assert streaming.solution_size <= 2 * len(offline) + 2

    def test_all_algorithms_agree_on_feasibility(self, small_random_instance):
        system = small_random_instance.system
        algorithms = [
            SahaGetoorGreedy(),
            StoreEverythingSetCover(),
            OptGuessingSetCover(alpha=2, seed=5),
        ]
        sizes = []
        for algorithm in algorithms:
            result = run_streaming_algorithm(algorithm, system)
            assert is_feasible_cover(system, result.solution)
            sizes.append(result.solution_size)
        # The store-everything offline solution is never beaten by more than
        # the approximation slack of the others.
        assert min(sizes) >= 1


class TestHardInstancePipeline:
    """D_SC instances flow through both the streaming and the two-party paths."""

    def test_streaming_on_dsc_instance(self):
        instance = dsc_stream_instance(96, 6, alpha=2, theta=1, seed=11)
        config = AlgorithmOneConfig(alpha=2, opt_guess=2, epsilon=0.5)
        result = run_streaming_algorithm(
            StreamingSetCover(config, seed=11),
            instance.system,
            order=StreamOrder.RANDOM,
            seed=11,
        )
        assert is_feasible_cover(instance.system, result.solution)

    def test_two_party_protocols_consistent_with_exact(self):
        parameters = DSCParameters(universe_size=90, num_pairs=4, alpha=2, t=9)
        instance, alice, bob, _assignment = sample_dsc_random_partition(
            parameters, seed=13
        )
        exact = exact_cover_value(instance.set_system())
        full = FullExchangeSetCoverProtocol(solver="exact").execute(alice, bob)
        assert full.output == exact
        approx = TwoPartyAlgorithmOneProtocol(alpha=2, opt_guess=2, seed=13).execute(
            alice, bob
        )
        assert exact <= approx.output <= max(3 * exact, exact + 4)

    def test_space_budget_interrupts_greedy_storage(self):
        from repro.exceptions import SpaceBudgetExceededError

        instance = plant_cover_instance(200, 30, 4, seed=17)
        with pytest.raises(SpaceBudgetExceededError):
            run_streaming_algorithm(
                StoreEverythingSetCover(), instance.system, space_budget=50
            )
