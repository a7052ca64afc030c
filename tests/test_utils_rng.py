"""Unit tests for the seeded random source."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import _ACTIVE, MetricsRegistry
from repro.utils import rng as rng_module
from repro.utils.rng import RandomSource, derive_seed, spawn_rng


class TestDeriveSeed:
    def test_value_only_dependence(self):
        """Derivation depends only on (root, path) — never on call history."""
        first = derive_seed(5, "stream", "a")
        for _ in range(10):
            derive_seed(5, "stream", "b")
        assert derive_seed(5, "stream", "a") == first

    def test_int_and_str_components_mix(self):
        assert derive_seed(5, 1, "a") != derive_seed(5, "1a")
        assert derive_seed(5, 1, "a") == derive_seed(5, "1", "a")

    def test_encoding_is_injective(self):
        """A component containing the separator cannot fake two components."""
        assert derive_seed(7, "a:b") != derive_seed(7, "a", "b")
        assert derive_seed(7, "a|1:b") != derive_seed(7, "a", "b")
        assert derive_seed(7, "ab", "") != derive_seed(7, "a", "b")

    def test_usable_as_random_source_seed(self):
        seed = derive_seed(5, "x")
        assert RandomSource(seed).random() == RandomSource(seed).random()

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


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        a = RandomSource(1)
        b = RandomSource(2)
        assert [a.randint(0, 10 ** 9) for _ in range(5)] != [
            b.randint(0, 10 ** 9) for _ in range(5)
        ]

    def test_spawn_is_deterministic(self):
        a_children = [RandomSource(7).spawn().randint(0, 10 ** 9) for _ in range(1)]
        b_children = [RandomSource(7).spawn().randint(0, 10 ** 9) for _ in range(1)]
        assert a_children == b_children

    def test_spawned_children_independent_order(self):
        parent = RandomSource(3)
        first = parent.spawn()
        second = parent.spawn()
        assert first.randint(0, 10 ** 9) != second.randint(0, 10 ** 9)


class TestHelpers:
    def test_permutation_is_permutation(self):
        perm = RandomSource(11).permutation(20)
        assert sorted(perm) == list(range(20))

    def test_subset_size(self):
        subset = RandomSource(5).subset(50, 10)
        assert len(subset) == 10
        assert all(0 <= e < 50 for e in subset)

    def test_subset_too_large_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(5).subset(3, 5)

    def test_bernoulli_extremes(self):
        rng = RandomSource(9)
        assert all(rng.bernoulli(1.0) for _ in range(20))
        assert not any(rng.bernoulli(0.0) for _ in range(20))

    def test_uniform_range(self):
        rng = RandomSource(4)
        values = [rng.uniform(2.0, 3.0) for _ in range(100)]
        assert all(2.0 <= v <= 3.0 for v in values)

    def test_subset_mask_matches_subset(self):
        a, b = RandomSource(21), RandomSource(21)
        for _ in range(10):
            assert b.subset_mask(40, 6) == sum(1 << e for e in a.subset(40, 6))
        # Both sources are left at the same stream position.
        assert a.random() == b.random()

    def test_subset_mask_too_large_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(5).subset_mask(3, 5)

    def test_random_array_matches_sequential_draws(self):
        if rng_module.batching_numpy() is None:
            pytest.skip("sampler batching is off or NumPy is missing")
        from repro.utils.rng import _BATCH_NUMPY_MIN

        count = _BATCH_NUMPY_MIN + 100
        source = RandomSource(33)
        reference = [source.random() for _ in range(count)]
        rng = RandomSource(33)
        draws = rng.random_array(count)
        assert draws is not None
        assert draws.tolist() == reference
        # The stream advanced exactly `count` draws.
        probe = RandomSource(33)
        for _ in range(count):
            probe.random()
        assert rng.random() == probe.random()

    def test_random_array_declines_small_batches(self):
        rng = RandomSource(2)
        before = rng.randbits(64)
        rng = RandomSource(2)
        assert rng.random_array(10) is None
        # Nothing was consumed by the declined call.
        assert rng.randbits(64) == before

    def test_random_array_rejects_negative(self):
        with pytest.raises(ValueError):
            RandomSource(1).random_array(-1)


def counted(call):
    """``(call(), counters)`` with a fresh metrics registry active."""
    registry = MetricsRegistry()
    token = _ACTIVE.set(registry)
    try:
        result = call()
    finally:
        _ACTIVE.reset(token)
    return result, registry.snapshot()["counters"]


#: 0, 1, odd counts, and each side of the decode minimums and of the
#: words/transfer crossover.
FLOAT_COUNTS = sorted(
    {0, 1, 3, 7, 1001}
    | {
        minimum + step
        for minimum in (
            rng_module._WORDS_ARRAY_MIN,
            rng_module._WORDS_BATCH_MIN,
            rng_module._BATCH_NUMPY_MIN,
        )
        for step in (-1, 0, 1)
    }
)

#: How the floats are drawn: the measured thresholds, the decode forced
#: from 0 floats (no transfer), and the transfer forced from 0 floats.
FLOAT_MODES = {
    "default": {},
    "words": {"_WORDS_ARRAY_MIN": 0, "_WORDS_BATCH_MIN": 0, "_BATCH_NUMPY_MIN": 1 << 60},
    "transfer": {"_WORDS_ARRAY_MIN": 0, "_WORDS_BATCH_MIN": 0, "_BATCH_NUMPY_MIN": 0},
}


def float_outcome(seed, count, mode, method):
    """``(floats or None, state afterwards, counters)`` of one float call."""
    engine = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        for name, value in FLOAT_MODES[mode].items():
            patch.setattr(rng_module, name, value)
        result, counters = counted(lambda: getattr(RandomSource(engine), method)(count))
    return result, engine.getstate(), counters.get("rng.draws", 0)


def random_calls(seed, count):
    """``count`` ``random()`` calls and the state they leave."""
    engine = random.Random(seed)
    return [engine.random() for _ in range(count)], engine.getstate()


class TestFloatBatches:
    """``random_batch`` and ``random_array`` against the ``random()`` loop."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(FLOAT_COUNTS),
        st.sampled_from(sorted(FLOAT_MODES)),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_batch(self, seed, count, mode):
        floats, state, draws = float_outcome(seed, count, mode, "random_batch")
        assert type(floats) is list
        assert (floats, state) == random_calls(seed, count)
        assert draws == count

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(FLOAT_COUNTS),
        st.sampled_from(sorted(FLOAT_MODES)),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_array(self, seed, count, mode):
        floats, state, draws = float_outcome(seed, count, mode, "random_array")
        minimum = FLOAT_MODES[mode].get("_WORDS_ARRAY_MIN", rng_module._WORDS_ARRAY_MIN)
        if rng_module.batching_numpy() is None or count < minimum:
            # Declined: nothing drawn, nothing counted.
            assert floats is None
            assert state == random.Random(seed).getstate()
            assert draws == 0
            return
        assert floats.dtype == "float64"
        assert (floats.tolist(), state) == random_calls(seed, count)
        assert draws == count

    def test_each_path_runs_where_measured(self, monkeypatch):
        np = rng_module.batching_numpy()
        if np is None:
            pytest.skip("sampler batching is off or NumPy is missing")
        calls = []
        for name in ("_floats_from_words", "_batch_floats_numpy"):
            original = getattr(rng_module, name)

            def recorded(np, rng, count, name=name, original=original):
                calls.append((name, count))
                return original(np, rng, count)

            monkeypatch.setattr(rng_module, name, recorded)
        source = RandomSource(4)
        source.random_batch(rng_module._WORDS_BATCH_MIN - 1)
        source.random_batch(rng_module._WORDS_BATCH_MIN)
        assert source.random_array(rng_module._WORDS_ARRAY_MIN - 1) is None
        source.random_array(rng_module._WORDS_ARRAY_MIN)
        source.random_array(rng_module._BATCH_NUMPY_MIN - 1)
        source.random_batch(rng_module._BATCH_NUMPY_MIN)
        assert calls == [
            ("_floats_from_words", rng_module._WORDS_BATCH_MIN),
            ("_floats_from_words", rng_module._WORDS_ARRAY_MIN),
            ("_floats_from_words", rng_module._BATCH_NUMPY_MIN - 1),
            ("_batch_floats_numpy", rng_module._BATCH_NUMPY_MIN),
        ]

    def test_batching_off_runs_the_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLER_BATCH", "off")
        count = rng_module._BATCH_NUMPY_MIN + 1
        assert RandomSource(8).random_array(count) is None
        floats, state, _ = float_outcome(8, count, "default", "random_batch")
        assert (floats, state) == random_calls(8, count)


class ConstantRandom(random.Random):
    """A subclass whose ``random()`` is its own."""

    def random(self):
        return 0.25


class RecordingSystemRandom(random.SystemRandom):
    """``SystemRandom`` that records the floats its ``random()`` returns."""

    def __init__(self):
        super().__init__()
        self.returned = []

    def random(self):
        value = super().random()
        self.returned.append(value)
        return value


#: Counts on each vectorized path if the generator were exactly Random.
OTHER_GENERATOR_COUNTS = [
    rng_module._WORDS_BATCH_MIN,
    9000,
    rng_module._BATCH_NUMPY_MIN,
]


class TestOtherGenerators:
    """Only an exact ``random.Random`` is drawn vectorized; others loop."""

    @pytest.mark.parametrize("count", OTHER_GENERATOR_COUNTS)
    def test_subclass_random_is_called(self, count):
        source = RandomSource(ConstantRandom(3))
        assert source.random_batch(count) == [0.25] * count
        assert source.random_array(count) is None

    @pytest.mark.parametrize("count", OTHER_GENERATOR_COUNTS)
    def test_system_random_floats_are_its_own(self, count):
        engine = RecordingSystemRandom()
        assert RandomSource(engine).random_batch(count) == engine.returned
        assert len(engine.returned) == count

    def test_system_random(self):
        source = RandomSource(random.SystemRandom())
        floats = source.random_batch(9000)
        assert len(floats) == 9000
        assert all(0.0 <= value < 1.0 for value in floats)
        assert source.random_array(9000) is None


class TestSpawnRng:
    def test_spawn_rng_passthrough(self):
        source = RandomSource(1)
        assert spawn_rng(source) is source

    def test_spawn_rng_from_int(self):
        assert isinstance(spawn_rng(17), RandomSource)

    def test_spawn_rng_from_none(self):
        assert isinstance(spawn_rng(None), RandomSource)
