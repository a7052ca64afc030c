"""Unit tests for the workload generators."""

import random

import pytest

from repro.setcover.exact import exact_cover_value
from repro.telemetry.metrics import _ACTIVE, MetricsRegistry
from repro.utils.rng import RandomSource
from repro.workloads.adversarial import dmc_stream_instance, dsc_stream_instance
from repro.workloads.coverage import topic_coverage_instance
from repro.workloads.random_instances import (
    disjoint_blocks_instance,
    plant_cover_instance,
    random_instance,
    random_set_system,
    zipfian_instance,
)


class TestRandomSetSystem:
    def test_fixed_size_sets(self):
        system = random_set_system(50, 10, set_size=7, seed=1)
        assert system.num_sets == 10
        assert all(system.set_size(i) == 7 for i in range(10))

    def test_density_sets(self):
        system = random_set_system(100, 20, density=0.3, seed=2)
        total = sum(system.set_size(i) for i in range(system.num_sets))
        assert 400 <= total <= 800  # 20 * 100 * 0.3 = 600 expected

    def test_default_density_coverable_often(self):
        system = random_set_system(80, 40, seed=3)
        assert system.num_sets == 40

    def test_conflicting_arguments(self):
        with pytest.raises(ValueError):
            random_set_system(10, 5, set_size=3, density=0.5)

    def test_invalid_set_size(self):
        with pytest.raises(ValueError):
            random_set_system(10, 5, set_size=20)

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            random_set_system(10, 5, density=1.5)

    def test_determinism(self):
        a = random_set_system(30, 10, set_size=5, seed=9)
        b = random_set_system(30, 10, set_size=5, seed=9)
        assert a == b


class TestRandomInstance:
    def test_always_coverable(self):
        for seed in range(5):
            instance = random_instance(40, 15, seed=seed)
            assert instance.system.is_coverable()

    def test_patched_fallback_is_coverable_and_flagged(self):
        # Density 0 never draws a covering system, so all 32 attempts fail
        # and the coverability patch must kick in on the last draw.
        instance = random_instance(12, 4, density=0.0, seed=1)
        assert instance.metadata["patched"] is True
        assert instance.system.is_coverable()
        # Only the last set was patched (with exactly the missing elements).
        assert instance.system.mask(3) == (1 << 12) - 1
        assert all(instance.system.mask(i) == 0 for i in range(3))

    def test_unpatched_instances_carry_no_flag(self):
        instance = random_instance(40, 15, density=0.3, seed=2)
        assert "patched" not in instance.metadata


class TestWithPatchedMask:
    def test_returns_new_system_without_mutating_original(self):
        from repro.setcover.instance import SetSystem

        system = SetSystem(6, [[0, 1], [2]], names=["a", "b"])
        masks_before = system.masks()
        patched = system.with_patched_mask(1, 0b111000)
        assert system.masks() == masks_before
        assert patched.mask(1) == 0b111100
        assert patched.mask(0) == system.mask(0)
        assert patched.names == ["a", "b"]

    def test_rejects_bad_index_and_foreign_elements(self):
        from repro.setcover.instance import SetSystem

        system = SetSystem(4, [[0]])
        with pytest.raises(ValueError):
            system.with_patched_mask(5, 1)
        with pytest.raises(ValueError):
            system.with_patched_mask(0, 1 << 10)


class TestPlantedCover:
    def test_planted_opt_is_exact(self):
        instance = plant_cover_instance(60, 20, 3, seed=4)
        assert exact_cover_value(instance.system) == 3

    def test_coverable(self):
        instance = plant_cover_instance(100, 25, 5, seed=5)
        assert instance.system.is_coverable()

    def test_planted_positions_recorded(self):
        instance = plant_cover_instance(60, 20, 3, seed=6)
        positions = instance.metadata["planted_positions"]
        assert len(positions) == 3
        assert all(0 <= p < 20 for p in positions)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            plant_cover_instance(10, 5, 0)
        with pytest.raises(ValueError):
            plant_cover_instance(10, 5, 6)
        with pytest.raises(ValueError):
            plant_cover_instance(3, 10, 5)

    def test_custom_decoy_size(self):
        instance = plant_cover_instance(60, 20, 3, decoy_set_size=2, seed=7)
        assert instance.metadata["decoy_set_size"] == 2


def planted_by_block(universe_size, num_sets, cover_size, overlap, rng):
    """``plant_cover_instance``'s sets, drawn one block and one float at a time.

    The reference draw order: each planted set is its block plus one
    ``random()`` draw per element outside it, in ascending order, block
    after block; then the decoys and the shuffle.
    """
    block_size = universe_size // cover_size
    masks = []
    start = 0
    for index in range(cover_size):
        end = universe_size if index == cover_size - 1 else start + block_size
        mask = sum(1 << element for element in range(start, end))
        for element in range(universe_size):
            if not start <= element < end and rng.random() < overlap:
                mask |= 1 << element
        masks.append(mask)
        start = end
    decoy_size = min(max(1, block_size // 2), universe_size)
    masks += [rng.subset_mask(universe_size, decoy_size) for _ in range(num_sets - cover_size)]
    order = rng.permutation(len(masks))
    return [masks[index] for index in order]


def planted_outcome(universe_size, num_sets, cover_size, overlap, seed, generate):
    """``(masks, state afterwards, counters)`` of one planted instance."""
    engine = random.Random(seed)
    registry = MetricsRegistry()
    token = _ACTIVE.set(registry)
    try:
        if generate:
            instance = plant_cover_instance(
                universe_size, num_sets, cover_size, overlap=overlap, seed=RandomSource(engine)
            )
            masks = instance.system.masks()
        else:
            masks = planted_by_block(
                universe_size, num_sets, cover_size, overlap, RandomSource(engine)
            )
    finally:
        _ACTIVE.reset(token)
    return masks, engine.getstate(), registry.snapshot()["counters"]


class TestPlantedMasks:
    """The planted overlaps, drawn as one batch, against the per-block loop."""

    @pytest.mark.parametrize("batching", ["on", "off"])
    @pytest.mark.parametrize("overlap", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("cover_size", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("universe_size", [97, 301])
    def test_equals_per_block_loop(
        self, monkeypatch, universe_size, cover_size, overlap, batching
    ):
        # n is prime, so no cover_size > 1 divides it; (cover_size − 1)·n
        # spans both sides of random_array's minimum.
        if batching == "off":
            monkeypatch.setenv("REPRO_SAMPLER_BATCH", "off")
        for seed in (0, 7):
            shape = (universe_size, 3 * cover_size, cover_size, overlap, seed)
            assert planted_outcome(*shape, True) == planted_outcome(*shape, False)

    def test_e3_shape(self):
        # E3's instances: n = 400, m = 40, four planted sets.
        shape = (400, 40, 4, 0.1, 2019)
        assert planted_outcome(*shape, True) == planted_outcome(*shape, False)


class TestZipfAndBlocks:
    def test_zipfian_coverable(self):
        instance = zipfian_instance(80, 30, set_size=10, seed=8)
        assert instance.system.is_coverable()
        assert instance.metadata["kind"] == "zipf"

    def test_zipfian_invalid_skew(self):
        with pytest.raises(ValueError):
            zipfian_instance(10, 5, 3, skew=0.0)

    def test_disjoint_blocks(self):
        instance = disjoint_blocks_instance(24, 4, seed=9)
        assert instance.planted_opt == 4
        system = instance.system
        union = system.coverage(range(4))
        assert union == 24
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (system.elements(i) & system.elements(j))

    def test_disjoint_blocks_invalid(self):
        with pytest.raises(ValueError):
            disjoint_blocks_instance(5, 6)


class TestCoverageWorkloads:
    def test_topic_coverage_shapes(self):
        instance = topic_coverage_instance(50, 20, communities=4, seed=10)
        assert instance.system.universe_size == 50
        assert instance.system.num_sets == 20
        assert instance.metadata["communities"] == 4

    def test_invalid_communities(self):
        with pytest.raises(ValueError):
            topic_coverage_instance(10, 5, communities=0)


class TestAdversarialWorkloads:
    def test_dsc_instance_shapes(self):
        instance = dsc_stream_instance(60, 5, alpha=2, theta=1, seed=12)
        assert instance.system.num_sets == 10
        assert instance.planted_opt == 2
        assert instance.metadata["kind"] == "dsc"

    def test_dsc_theta_zero_has_no_planted_opt(self):
        instance = dsc_stream_instance(60, 5, alpha=2, theta=0, seed=13)
        assert instance.planted_opt is None

    def test_dmc_instance_shapes(self):
        instance = dmc_stream_instance(4, epsilon=0.4, seed=14)
        assert instance.system.num_sets == 8
        assert instance.metadata["k"] == 2
