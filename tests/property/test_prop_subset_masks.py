"""Identity of ``RandomSource.subset_masks`` with the ``subset_mask`` loop.

``subset_masks`` replays CPython's set-selection ``random.sample`` in bulk
when NumPy batching is on and runs the ``subset_mask`` loop otherwise.
Either way the masks, the generator state afterwards and the ``rng.draws``
count must equal ``count`` sequential ``subset_mask`` calls.  The suite runs
the default thresholds, forces the replay for every eligible shape (the
crossover lowered to one draw), shrinks the replay's chunks so rows
straddle and overflow them, and pins the cases that must keep the loop.
Under ``REPRO_SAMPLER_BATCH=off`` or without NumPy both sides take the loop
and the identity is trivial, but the grid still runs.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import _ACTIVE, MetricsRegistry
from repro.utils import rng as rng_module
from repro.utils.rng import RandomSource


class SubclassedRandom(random.Random):
    """A generator that is not exactly ``random.Random``."""


def outcome(seed, universe_size, size, count, bulk, generator=random.Random):
    """``(masks or the ValueError, state afterwards, counters)`` of one call."""
    engine = generator(seed)
    source = RandomSource(engine)
    registry = MetricsRegistry()
    token = _ACTIVE.set(registry)
    try:
        if bulk:
            result = source.subset_masks(universe_size, size, count)
        else:
            result = [source.subset_mask(universe_size, size) for _ in range(count)]
    except ValueError as error:
        result = ("ValueError", str(error))
    finally:
        _ACTIVE.reset(token)
    return result, engine.getstate(), registry.snapshot()["counters"]


def assert_matches_loop(seed, universe_size, size, count, generator=random.Random):
    bulk = outcome(seed, universe_size, size, count, True, generator)
    loop = outcome(seed, universe_size, size, count, False, generator)
    assert bulk[0] == loop[0]
    assert bulk[1] == loop[1]
    assert bulk[2] == loop[2]


def selects_by_set(universe_size, size):
    return rng_module._sample_selects_by_set(universe_size, size)


@st.composite
def shapes(draw):
    """n ∈ [1, 4096], k ∈ [0, n] (often small enough for the set branch)."""
    universe_size = draw(st.integers(min_value=1, max_value=4096))
    size = draw(
        st.one_of(
            st.integers(min_value=0, max_value=universe_size),
            st.integers(min_value=0, max_value=max(0, universe_size // 12)),
        )
    )
    count = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return universe_size, size, count, seed


EDGE_SHAPES = [
    (1, 0, 5, 0),  # n = 1, k = 0
    (1, 1, 5, 0),  # n = 1, k = n
    (4096, 0, 40, 1),  # k = 0
    (4096, 4096, 3, 2),  # k = n (pool branch)
    (21, 1, 40, 3),  # pool branch: n ≤ 21
    (22, 1, 40, 3),  # set branch: n > 21 for k ≤ 5
    (22, 5, 40, 4),
    (32, 6, 40, 5),  # k > 5: 21 + 4^⌈log₄ 18⌉ = 85 ≥ n, pool branch
    (86, 6, 40, 5),  # ... and one past it, set branch
    (4096, 341, 40, 6),  # the largest set-branch k at n = 4096
    (4096, 342, 20, 7),  # the smallest pool-branch k at n = 4096
]


def with_edges(test):
    for shape in EDGE_SHAPES:
        test = example(shape)(test)
    return test


class TestIdentity:
    def test_edge_shapes_cover_both_branches(self):
        branches = {selects_by_set(n, k) for n, k, _, _ in EDGE_SHAPES if k > 0}
        assert branches == {True, False}
        assert not selects_by_set(21, 1) and selects_by_set(22, 1)
        assert not selects_by_set(85, 6) and selects_by_set(86, 6)
        assert selects_by_set(4096, 341) and not selects_by_set(4096, 342)

    @given(shapes())
    @with_edges
    @settings(max_examples=60, deadline=None)
    def test_default_thresholds(self, shape):
        universe_size, size, count, seed = shape
        assert_matches_loop(seed, universe_size, size, count)

    @given(shapes())
    @with_edges
    @settings(max_examples=80, deadline=None)
    def test_forced_replay(self, shape):
        universe_size, size, count, seed = shape
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng_module, "_SUBSET_BULK_MIN_DRAWS", 1)
            assert_matches_loop(seed, universe_size, size, count)

    @given(shapes())
    @with_edges
    @settings(max_examples=60, deadline=None)
    def test_rows_straddle_tiny_chunks(self, shape):
        # 32-word chunks of at most one 64-element row: most rows run past
        # their chunk, which then doubles until one row completes.
        universe_size, size, count, seed = shape
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng_module, "_SUBSET_BULK_MIN_DRAWS", 1)
            patch.setattr(rng_module, "_SUBSET_CHUNK_WORDS", 32)
            patch.setattr(rng_module, "_SUBSET_CHUNK_CELLS", 64)
            patch.setattr(rng_module, "_words_per_row", lambda n, k: 0.0)
            assert_matches_loop(seed, universe_size, size, count)

    @pytest.mark.parametrize(
        "universe_size,size,count",
        [
            (8192, 1365, 30),  # ~3000 words a row: three 32k-word chunks
            (400, 50, 3000),  # more rows than one chunk's 2^20 cells hold
        ],
    )
    def test_real_chunk_boundaries(self, universe_size, size, count):
        assert selects_by_set(universe_size, size)
        assert_matches_loop(11, universe_size, size, count)

    def test_replay_runs_when_eligible(self, monkeypatch):
        if rng_module.batching_numpy() is None:
            pytest.skip("sampler batching is off or NumPy is missing")
        calls = []
        replay = rng_module._replay_subset_masks
        monkeypatch.setattr(
            rng_module,
            "_replay_subset_masks",
            lambda *args: calls.append(args[2:]) or replay(*args),
        )
        assert_matches_loop(3, 400, 50, 36)
        assert calls == [(400, 50, 36)]


def forbid_replay(monkeypatch):
    def replay(*args):
        raise AssertionError("the bulk replay ran for a loop-only case")

    monkeypatch.setattr(rng_module, "_replay_subset_masks", replay)


class TestLoopCases:
    """Cases that keep the loop, and its ValueError, exactly."""

    @pytest.mark.parametrize("universe_size,size,count", [(400, 50, 36), (4096, 32, 40)])
    def test_batching_off(self, monkeypatch, universe_size, size, count):
        monkeypatch.setenv("REPRO_SAMPLER_BATCH", "off")
        forbid_replay(monkeypatch)
        assert_matches_loop(5, universe_size, size, count)

    def test_subclassed_generator(self, monkeypatch):
        forbid_replay(monkeypatch)
        assert_matches_loop(6, 400, 50, 36, generator=SubclassedRandom)

    @pytest.mark.parametrize("count", [0, 1, 40])
    def test_size_above_universe(self, monkeypatch, count):
        forbid_replay(monkeypatch)
        bulk = outcome(7, 30, 31, count, True)
        assert bulk == outcome(7, 30, 31, count, False)
        if count:
            assert bulk[0] == (
                "ValueError",
                "cannot sample 31 elements from a universe of 30",
            )

    @pytest.mark.parametrize("count", [0, 1, 40])
    def test_negative_size(self, monkeypatch, count):
        forbid_replay(monkeypatch)
        bulk = outcome(8, 400, -3, count, True)
        assert bulk == outcome(8, 400, -3, count, False)
        if count:
            assert bulk[0][0] == "ValueError"

    def test_pool_branch(self, monkeypatch):
        forbid_replay(monkeypatch)
        assert not selects_by_set(1024, 170)
        assert_matches_loop(9, 1024, 170, 40)

    def test_below_crossover(self, monkeypatch):
        forbid_replay(monkeypatch)
        assert_matches_loop(10, 400, 50, 3)
