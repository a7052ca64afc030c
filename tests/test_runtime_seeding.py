"""Unit tests for the hierarchical seed-derivation protocol."""

from repro.runtime.seeding import (
    DEFAULT_ROOT_SEED,
    SeedStreams,
    repetition_seed,
    scenario_seed,
    stream_seed,
)
from repro.utils.rng import derive_seed

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


class TestSeedStreams:
    def test_stream_is_cached(self):
        streams = SeedStreams(9)
        assert streams.stream("instance") is streams.stream("instance")

    def test_stream_isolation(self):
        """Extra draws on one named stream must not perturb another."""
        left = SeedStreams(9)
        left.stream("noise")  # created first, then drained heavily
        for _ in range(1000):
            left.stream("noise").random()
        left_values = [left.stream("signal").random() for _ in range(5)]

        right = SeedStreams(9)
        right_values = [right.stream("signal").random() for _ in range(5)]
        assert left_values == right_values

    def test_stream_order_independence(self):
        """The order streams are first requested does not change their seeds."""
        forward = SeedStreams(11)
        a_first = forward.stream("a").randint(0, 10 ** 9)
        b_second = forward.stream("b").randint(0, 10 ** 9)

        backward = SeedStreams(11)
        b_first = backward.stream("b").randint(0, 10 ** 9)
        a_second = backward.stream("a").randint(0, 10 ** 9)
        assert (a_first, b_second) == (a_second, b_first)

    def test_seed_for_matches_stream_seed(self):
        streams = SeedStreams(5)
        assert streams.seed_for("metrics") == stream_seed(5, "metrics")

    def test_names_sorted(self):
        streams = SeedStreams(1)
        streams.stream("b")
        streams.stream("a")
        assert streams.names() == ("a", "b")
        assert list(streams) == ["a", "b"]


def repetition_streams(root, name, repetition):
    """The streams of one repetition of a scenario, as the protocol composes them."""
    return SeedStreams(repetition_seed(scenario_seed(root, name), repetition))


class TestRunStreams:
    def test_repetitions_get_distinct_streams(self):
        rep0 = repetition_streams(None, "demo", repetition=0)
        rep1 = repetition_streams(None, "demo", repetition=1)
        assert rep0.base_seed != rep1.base_seed
        assert rep0.stream("x").random() != rep1.stream("x").random()

    def test_reproducible_across_managers(self):
        first = repetition_streams(77, "demo", repetition=3)
        second = repetition_streams(77, "demo", repetition=3)
        assert first.stream("x").random() == second.stream("x").random()
