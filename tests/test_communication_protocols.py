"""Unit tests for the concrete protocols (Disj, GHD, SetCover, MaxCover)."""

import pytest

from repro.communication.protocols.disjointness import (
    IntersectionProbeProtocol,
    TrivialDisjProtocol,
    correct_disjointness_answer,
    extract_inputs,
)
from repro.communication.protocols.ghd import TrivialGHDProtocol, correct_ghd_answer
from repro.communication.protocols.maxcover_protocol import (
    FullExchangeMaxCoverProtocol,
    SampledMaxCoverProtocol,
)
from repro.communication.protocols.setcover_protocol import (
    FullExchangeSetCoverProtocol,
    SetCoverInput,
    TwoPartyAlgorithmOneProtocol,
    merge_inputs,
)
from repro.problems.disjointness import sample_ddisj
from repro.problems.ghd import sample_dghd
from repro.setcover.exact import exact_cover_value
from repro.setcover.maxcover import exact_max_coverage
from repro.utils.bitset import bitset_from_iterable
from repro.utils.rng import RandomSource
from repro.workloads.random_instances import plant_cover_instance


def split_instance(system, seed=0):
    """Partition a system's sets into two SetCoverInput halves."""
    rng = RandomSource(seed)
    alice, bob = {}, {}
    for index in range(system.num_sets):
        target = alice if rng.bernoulli(0.5) else bob
        target[index] = system.mask(index)
    n = system.universe_size
    return SetCoverInput(n, alice), SetCoverInput(n, bob)


class TestDisjProtocols:
    def test_trivial_correct_on_samples(self):
        rng = RandomSource(1)
        protocol = TrivialDisjProtocol()
        for _ in range(30):
            instance = sample_ddisj(12, seed=rng.spawn())
            transcript = protocol.execute(*extract_inputs(instance))
            assert correct_disjointness_answer(instance, transcript.output)

    def test_probe_protocol_correct(self):
        rng = RandomSource(2)
        protocol = IntersectionProbeProtocol()
        for _ in range(10):
            instance = sample_ddisj(10, seed=rng.spawn())
            transcript = protocol.execute(instance.alice, instance.bob)
            assert correct_disjointness_answer(instance, transcript.output)
            assert transcript.rounds >= 3

    def test_cost_scales_with_set_size(self):
        protocol = TrivialDisjProtocol()
        small = protocol.execute(frozenset({1}), frozenset())
        large = protocol.execute(frozenset(range(64)), frozenset())
        assert large.total_bits > small.total_bits


class TestGHDProtocol:
    def test_correct_on_promise_instances(self):
        rng = RandomSource(3)
        protocol = TrivialGHDProtocol()
        for _ in range(20):
            instance = sample_dghd(30, seed=rng.spawn())
            transcript = protocol.execute(instance.alice, instance.bob)
            assert correct_ghd_answer(instance, transcript.output)


class TestSetCoverInputs:
    def test_merge_round_trip(self, planted_instance):
        alice, bob = split_instance(planted_instance.system, seed=4)
        merged, order = merge_inputs(alice, bob)
        assert merged.num_sets == planted_instance.num_sets
        assert sorted(order) == list(range(planted_instance.num_sets))

    def test_merge_rejects_duplicates(self):
        a = SetCoverInput(4, {0: 0b1})
        b = SetCoverInput(4, {0: 0b10})
        with pytest.raises(ValueError):
            merge_inputs(a, b)

    def test_merge_rejects_universe_mismatch(self):
        a = SetCoverInput(4, {0: 0b1})
        b = SetCoverInput(5, {1: 0b10})
        with pytest.raises(ValueError):
            merge_inputs(a, b)


class TestFullExchangeSetCover:
    def test_outputs_exact_opt(self, planted_instance):
        alice, bob = split_instance(planted_instance.system, seed=5)
        transcript = FullExchangeSetCoverProtocol(solver="exact").execute(alice, bob)
        assert transcript.output == exact_cover_value(planted_instance.system)

    def test_cost_close_to_input_size(self, planted_instance):
        alice, bob = split_instance(planted_instance.system, seed=5)
        transcript = FullExchangeSetCoverProtocol(solver="greedy").execute(alice, bob)
        # Alice ships all her incidences; the cost must be at least one bit per
        # incidence she holds.
        alice_incidences = sum(bin(mask).count("1") for mask in alice.sets.values())
        assert transcript.total_bits >= alice_incidences

    def test_invalid_solver(self):
        with pytest.raises(ValueError):
            FullExchangeSetCoverProtocol(solver="magic")


class TestTwoPartyAlgorithmOne:
    def test_estimates_close_to_opt(self, planted_instance):
        alice, bob = split_instance(planted_instance.system, seed=6)
        protocol = TwoPartyAlgorithmOneProtocol(
            alpha=2, opt_guess=planted_instance.planted_opt, seed=7
        )
        transcript = protocol.execute(alice, bob)
        opt = planted_instance.planted_opt
        assert opt <= transcript.output <= (2 + 0.5) * opt + opt

    def test_solution_in_metadata_covers_universe(self, planted_instance):
        alice, bob = split_instance(planted_instance.system, seed=6)
        protocol = TwoPartyAlgorithmOneProtocol(
            alpha=2, opt_guess=planted_instance.planted_opt, seed=7
        )
        transcript = protocol.execute(alice, bob)
        solution = transcript.metadata["solution"]
        assert planted_instance.system.covers_universe(solution)

    def test_cheaper_than_full_exchange_at_scale(self):
        instance = plant_cover_instance(2048, 30, 3, seed=11)
        alice, bob = split_instance(instance.system, seed=12)
        full = FullExchangeSetCoverProtocol(solver="greedy").execute(alice, bob)
        approx = TwoPartyAlgorithmOneProtocol(
            alpha=3,
            opt_guess=3,
            seed=13,
            subinstance_solver="greedy",
            sampling_constant=1.0,
        ).execute(alice, bob)
        assert approx.total_bits < full.total_bits

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TwoPartyAlgorithmOneProtocol(alpha=0, opt_guess=1)
        with pytest.raises(ValueError):
            TwoPartyAlgorithmOneProtocol(alpha=1, opt_guess=0)


class TestMaxCoverProtocols:
    def test_full_exchange_exact_value(self, planted_instance):
        alice, bob = split_instance(planted_instance.system, seed=8)
        transcript = FullExchangeMaxCoverProtocol(k=2, solver="exact").execute(alice, bob)
        _, opt = exact_max_coverage(planted_instance.system, 2)
        assert transcript.output == opt

    def test_sampled_estimate_reasonable(self, planted_instance):
        alice, bob = split_instance(planted_instance.system, seed=8)
        protocol = SampledMaxCoverProtocol(k=2, epsilon=0.3, seed=9)
        transcript = protocol.execute(alice, bob)
        _, opt = exact_max_coverage(planted_instance.system, 2)
        assert transcript.output == pytest.approx(opt, rel=0.6)

    def test_sampled_cheaper_for_coarse_epsilon(self, planted_instance):
        alice, bob = split_instance(planted_instance.system, seed=8)
        coarse = SampledMaxCoverProtocol(k=2, epsilon=0.6, seed=9).execute(alice, bob)
        fine = SampledMaxCoverProtocol(k=2, epsilon=0.15, seed=9).execute(alice, bob)
        assert coarse.total_bits <= fine.total_bits

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FullExchangeMaxCoverProtocol(k=0)
        with pytest.raises(ValueError):
            SampledMaxCoverProtocol(k=2, epsilon=1.5)
