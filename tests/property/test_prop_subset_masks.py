"""Identity of ``RandomSource.subset_masks`` with the ``subset_mask`` loop.

``subset_masks`` replays CPython's ``random.sample`` in bulk when NumPy
batching is on, in its set-selection branch and in its pool branch, and
runs the ``subset_mask`` loop otherwise.  Either way the masks, the
generator state afterwards and the ``rng.draws`` count must equal ``count``
sequential ``subset_mask`` calls.  The suite runs the default thresholds,
forces the replays for every eligible shape (the crossovers lowered to one
draw), shrinks the replays' chunks and blocks so rows straddle and overflow
them, starves the pool walk of words, and pins the cases that must keep
the loop.  ``spent_subset_masks``, the pool walk across many sources, must
equal each source's own loop.  The set-branch replay finds a chunk's row
ends in one walk; it must equal the per-row fixpoint and a direct count of
distinct values, also when rows outgrow the walk's span.  Under ``REPRO_SAMPLER_BATCH=off`` or
without NumPy both sides take the loop and the identity is trivial, but
the grid still runs.
"""

import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import _ACTIVE, MetricsRegistry
from repro.utils import rng as rng_module
from repro.utils.rng import RandomSource, spent_subset_masks


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
def pool_shapes(draw):
    """Pool-branch shapes, n often a power of two or one above it."""
    bits = draw(st.integers(min_value=0, max_value=12))
    universe_size = draw(
        st.one_of(
            st.sampled_from([1 << bits, (1 << bits) + 1]),
            st.integers(min_value=1, max_value=4096),
        )
    )
    size = draw(
        st.one_of(
            st.just(universe_size),
            st.just(1),
            st.integers(min_value=1, max_value=universe_size),
        )
    )
    assume(not selects_by_set(universe_size, size))
    count = draw(st.integers(min_value=0, max_value=12 if size > 512 else 40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return universe_size, size, count, seed


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
    # Pool branch.  Step i accepts a word below (n − i) << (32 − b), with
    # b = (n − i).bit_length(), so the threshold jumps wherever n − i
    # crosses a power of two.
    (1024, 170, 40, 9),  # n a power of two: the first step alone halves
    (1025, 300, 12, 10),  # n one above it: the jump comes at the third step
    (512, 512, 3, 11),  # k = n through every power of two below n
    (513, 513, 3, 12),
    (16, 1, 200, 13),  # k = 1, n ≤ 21
    (17, 17, 40, 14),  # k = n, n ≤ 21
    (2, 1, 300, 15),  # n − i = 1 accepts exactly half the words
]


def with_edges(test):
    for shape in EDGE_SHAPES:
        test = example(shape)(test)
    return test


def forced(patch):
    """Lower both replays' crossovers to one draw."""
    patch.setattr(rng_module, "_SUBSET_BULK_MIN_DRAWS", 1)
    patch.setattr(rng_module, "_POOL_BULK_MIN_DRAWS", 1)
    patch.setattr(rng_module, "_POOL_BULK_MIN_ROWS", 1)


def spy_on(monkeypatch, name):
    """Record the ``(n, k, count)`` of every call of the replay ``name``."""
    calls = []
    replay = getattr(rng_module, name)

    def recorded(np, engines, n, k, count, *rest):
        calls.append((n, k, count))
        return replay(np, engines, n, k, count, *rest)

    monkeypatch.setattr(rng_module, name, recorded)
    return calls


class TestIdentity:
    def test_edge_shapes_cover_both_branches(self):
        branches = {selects_by_set(n, k) for n, k, _, _ in EDGE_SHAPES if k > 0}
        assert branches == {True, False}
        assert not selects_by_set(21, 1) and selects_by_set(22, 1)
        assert not selects_by_set(85, 6) and selects_by_set(86, 6)
        assert selects_by_set(4096, 341) and not selects_by_set(4096, 342)
        assert not any(selects_by_set(n, k) for n, k, _, seed in EDGE_SHAPES if seed >= 9)

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
            forced(patch)
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

    @given(shapes())
    @with_edges
    @settings(max_examples=60, deadline=None)
    def test_rows_outgrow_the_span(self, shape):
        # A span of 32 values: every row of more than 32 values leaves the
        # chunk walk for the fixpoint.
        universe_size, size, count, seed = shape
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng_module, "_SUBSET_BULK_MIN_DRAWS", 1)
            patch.setattr(rng_module, "_SUBSET_ROW_SPAN", 0.0)
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
        calls = spy_on(monkeypatch, "_replay_subset_masks")
        assert_matches_loop(3, 400, 50, 36)
        assert calls == [(400, 50, 36)]

    def test_pool_branch(self, monkeypatch):
        # E1's decoys at n = 1024: the pool walk runs and equals the loop.
        assert not selects_by_set(1024, 170)
        calls = spy_on(monkeypatch, "_replay_pool_masks")
        assert_matches_loop(9, 1024, 170, 40)
        if rng_module.batching_numpy() is not None:
            assert calls == [(1024, 170, 40)]

    @given(pool_shapes())
    @with_edges
    @settings(max_examples=80, deadline=None)
    def test_pool_walk(self, shape):
        universe_size, size, count, seed = shape
        with pytest.MonkeyPatch.context() as patch:
            forced(patch)
            assert_matches_loop(seed, universe_size, size, count)

    @given(pool_shapes())
    @with_edges
    @settings(max_examples=60, deadline=None)
    def test_pool_walk_short_of_words(self, shape):
        # No margin: a stream draws only its expected words, so about half
        # run short and draw again; 64-word blocks cut long rows many times;
        # one-row swap batches.
        universe_size, size, count, seed = shape
        with pytest.MonkeyPatch.context() as patch:
            forced(patch)
            patch.setattr(rng_module, "_POOL_WORD_MARGIN", 0.0)
            patch.setattr(rng_module, "_POOL_BLOCK_WORDS", 64)
            patch.setattr(rng_module, "_POOL_SWAP_CELLS", 1)
            assert_matches_loop(seed, universe_size, size, count)


def distinct_row_ends(values, size, rows):
    """Each row ends just after its ``size``-th distinct value."""
    ends, seen = [], set()
    for position, value in enumerate(values):
        if len(ends) == rows:
            break
        seen.add(value)
        if len(seen) == size:
            ends.append(position + 1)
            seen = set()
    return ends


def fixpoint_row_ends(np, prev, size, rows):
    """Row ends found one row at a time by the ``_row_end`` fixpoint."""
    ends, start = [], 0
    while len(ends) < rows:
        end = rng_module._row_end(np, prev, start, size, len(prev))
        if end is None:
            break
        ends.append(end)
        start = end
    return ends


class TestRowEnds:
    """The set-branch replay's chunk walk against the per-row fixpoint."""

    @given(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda alphabet: st.tuples(
                st.lists(st.integers(min_value=0, max_value=alphabet - 1), max_size=400),
                st.integers(min_value=1, max_value=alphabet),
            )
        ),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=150, deadline=None)
    def test_walk_equals_fixpoint(self, drawn, rows, span):
        np = pytest.importorskip("numpy")
        values, size = drawn
        prev = rng_module._previous_occurrences(np, np.array(values, dtype=np.uint8))
        walked = rng_module._row_ends(np, prev, size, rows, span)
        assert walked == fixpoint_row_ends(np, prev, size, rows)
        assert walked == distinct_row_ends(values, size, rows)

    def test_row_longer_than_span_takes_the_fixpoint(self, monkeypatch):
        np = pytest.importorskip("numpy")
        # Rows of 10, 3 and 6 values, then one that never completes.
        values = [0] * 6 + [1] * 3 + [2] + [3, 4, 5] + [5] * 4 + [6, 7] + [8]
        starts = []
        row_end = rng_module._row_end

        def recorded(np, prev, start, size, limit):
            starts.append(start)
            return row_end(np, prev, start, size, limit)

        monkeypatch.setattr(rng_module, "_row_end", recorded)
        prev = rng_module._previous_occurrences(np, np.array(values, dtype=np.uint8))
        assert rng_module._row_ends(np, prev, 3, 10, 5) == [10, 13, 19]
        assert distinct_row_ends(values, 3, 10) == [10, 13, 19]
        # The first and third rows outgrow the span of 5; the second does
        # not, and the last is cut short by the values drawn.
        assert starts == [0, 13]


def spent_outcome(seed, universe_size, size, count, taken, walk):
    """Masks taken per source, and the counters, from one walk or the loops.

    Source i takes the first ``taken[i]`` of its ``count`` masks.
    """

    def loop(child):
        return (child.subset_mask(universe_size, size) for _ in range(count))

    parent = RandomSource(seed)
    children = [parent.spawn() for _ in taken]
    registry = MetricsRegistry()
    token = _ACTIVE.set(registry)
    try:
        drawn = spent_subset_masks(children, universe_size, size, count) if walk else None
        if walk and count and rng_module.batching_numpy() is not None:
            assert drawn is not None
        if drawn is None:
            drawn = [loop(child) for child in children]
        masks = [list(itertools.islice(drops, limit)) for drops, limit in zip(drawn, taken)]
    finally:
        _ACTIVE.reset(token)
    return masks, registry.snapshot()["counters"]


class TestSpentSources:
    """``spent_subset_masks`` against each source's own loop."""

    @given(pool_shapes(), st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_matches_each_source_loop(self, shape, taken):
        universe_size, size, count, seed = shape
        taken = [min(limit, count) for limit in taken]
        with pytest.MonkeyPatch.context() as patch:
            forced(patch)
            patch.setattr(rng_module, "_POOL_WORD_MARGIN", 0.0)
            patch.setattr(rng_module, "_POOL_BLOCK_WORDS", 256)
            walked = spent_outcome(seed, universe_size, size, count, taken, True)
        assert walked == spent_outcome(seed, universe_size, size, count, taken, False)

    def test_declines_where_the_loop_runs(self, monkeypatch):
        children = [RandomSource(seed) for seed in range(200)]
        # Set-selection branch, and pool-branch calls below the crossover.
        assert spent_subset_masks(children, 4096, 50, 4) is None
        assert spent_subset_masks(children[:1], 600, 150, 13) is None
        assert spent_subset_masks(children[:7], 4096, 682, 1) is None
        assert spent_subset_masks(children, 600, 0, 4) is None
        assert spent_subset_masks(children, 600, 601, 4) is None
        subclassed = children[:-1] + [RandomSource(SubclassedRandom(1))]
        assert spent_subset_masks(subclassed, 600, 150, 4) is None
        monkeypatch.setenv("REPRO_SAMPLER_BATCH", "off")
        assert spent_subset_masks(children, 600, 150, 4) is None


def forbid_replay(monkeypatch):
    def replay(*args):
        raise AssertionError("the bulk replay ran for a loop-only case")

    monkeypatch.setattr(rng_module, "_replay_subset_masks", replay)
    monkeypatch.setattr(rng_module, "_replay_pool_masks", replay)


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

    def test_below_crossover(self, monkeypatch):
        forbid_replay(monkeypatch)
        assert_matches_loop(10, 400, 50, 3)

    @pytest.mark.parametrize(
        "universe_size,size,count",
        [
            (600, 150, 13),  # fewer draws than the crossover
            (4096, 682, 7),  # enough draws, too few masks
        ],
    )
    def test_pool_branch_below_crossover(self, monkeypatch, universe_size, size, count):
        forbid_replay(monkeypatch)
        assert not selects_by_set(universe_size, size)
        assert (
            count * size < rng_module._POOL_BULK_MIN_DRAWS
            or count < rng_module._POOL_BULK_MIN_ROWS
        )
        assert_matches_loop(11, universe_size, size, count)
