"""Unit tests for the hierarchical seed-derivation protocol."""

from repro.runtime.seeding import DEFAULT_ROOT_SEED, repetition_seed, scenario_seed
from repro.utils.rng import derive_seed, spawn_rng

import pytest


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_path_sensitive(self):
        seeds = {
            derive_seed(7),
            derive_seed(7, "a"),
            derive_seed(7, "b"),
            derive_seed(7, "a", 0),
            derive_seed(7, "a", 1),
            derive_seed(8, "a", 1),
        }
        assert len(seeds) == 6

    def test_64_bit_range(self):
        seed = derive_seed(123456789, "stream", "x")
        assert 0 <= seed < 2 ** 64


class TestScenarioAndRepetitionSeeds:
    def test_explicit_root_passes_through(self):
        assert scenario_seed(42, "E1") == 42

    def test_unset_root_derives_from_name(self):
        assert scenario_seed(None, "E1") == derive_seed(
            DEFAULT_ROOT_SEED, "scenario", "E1"
        )
        assert scenario_seed(None, "E1") != scenario_seed(None, "E2")

    def test_repetition_seeds_distinct(self):
        seeds = [repetition_seed(42, rep) for rep in range(20)]
        assert len(set(seeds)) == 20

    def test_negative_repetition_rejected(self):
        with pytest.raises(ValueError):
            repetition_seed(42, -1)


def repetition_streams(root, name, repetition):
    """The generator one repetition of a scenario runs on, as a runner makes it."""
    return spawn_rng(repetition_seed(scenario_seed(root, name), repetition))


class TestRunStreams:
    def test_repetitions_get_distinct_streams(self):
        rep0 = repetition_streams(None, "demo", repetition=0)
        rep1 = repetition_streams(None, "demo", repetition=1)
        assert rep0.random() != rep1.random()

    def test_reproducible_across_managers(self):
        first = repetition_streams(77, "demo", repetition=3)
        second = repetition_streams(77, "demo", repetition=3)
        assert [first.random() for _ in range(3)] == [second.random() for _ in range(3)]
