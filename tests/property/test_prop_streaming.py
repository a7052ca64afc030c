"""Property-based tests for the streaming substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    EmekRosenSemiStreaming,
    IterativePruningSetCover,
    McGregorVuMaxCoverage,
    ProgressiveGreedyPasses,
    SahaGetoorGreedy,
    StoreEverythingSetCover,
)
from repro.core.maxcover_stream import StreamingMaxCoverage
from repro.core.value_estimation import CountingBoundEstimator
from repro.kernels import HAS_NUMPY
from repro.setcover.instance import SetSystem
from repro.setcover.verify import is_feasible_cover
from repro.streaming.engine import run_streaming_algorithm
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import SetStream, StreamOrder
from repro.workloads.io import dumps_instance, loads_instance
from repro.setcover.instance import SetCoverInstance


@st.composite
def coverable_systems(draw, max_universe=16, max_sets=8):
    n = draw(st.integers(min_value=1, max_value=max_universe))
    m = draw(st.integers(min_value=1, max_value=max_sets))
    sets = [
        draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
        for _ in range(m)
    ]
    covered = set().union(*sets) if sets else set()
    missing = set(range(n)) - covered
    if missing:
        sets[0] = set(sets[0]) | missing
    return SetSystem(n, sets)


@st.composite
def arbitrary_systems(draw, max_universe=16, max_sets=8):
    n = draw(st.integers(min_value=1, max_value=max_universe))
    m = draw(st.integers(min_value=1, max_value=max_sets))
    sets = [
        draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
        for _ in range(m)
    ]
    return SetSystem(n, sets)


class TestStreamProperties:
    @given(arbitrary_systems(), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_random_order_is_permutation(self, system, seed):
        stream = SetStream(system, order=StreamOrder.RANDOM, seed=seed)
        assert sorted(stream.arrival_order) == list(range(system.num_sets))

    @given(arbitrary_systems(), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_masks_match_system(self, system, seed):
        stream = SetStream(system, order=StreamOrder.RANDOM, seed=seed)
        streamed = stream.batched_pass()
        for index in stream.arrival_order:
            assert streamed.mask(index) == system.mask(index)

    @given(arbitrary_systems(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_pass_counter_matches_iterations(self, system, passes):
        stream = SetStream(system)
        for _ in range(passes):
            stream.batched_pass()
        assert stream.passes_consumed == passes


class TestSpaceMeterProperties:
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 100)), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_peak_is_max_of_running_totals(self, updates):
        meter = SpaceMeter()
        running_peak = 0
        for category, words in updates:
            meter.set_usage(category, words)
            running_peak = max(running_peak, meter.current_words)
        assert meter.peak_words == running_peak
        assert meter.peak_words >= meter.current_words


class TestStreamingAlgorithmProperties:
    @given(coverable_systems(), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_single_pass_greedy_feasible_any_order(self, system, seed):
        result = run_streaming_algorithm(
            SahaGetoorGreedy(),
            system,
            order=StreamOrder.RANDOM,
            seed=seed,
            verify_solution=False,
        )
        assert is_feasible_cover(system, result.solution)
        assert result.passes == 1


#: Constructors for every streaming algorithm in the batched pipeline; each
#: call builds a fresh instance (the rng-carrying ones get fixed seeds so the
#: python/numpy runs consume identical streams).
_PARITY_ALGORITHMS = [
    ("emek-rosen", lambda: EmekRosenSemiStreaming()),
    ("saha-getoor", lambda: SahaGetoorGreedy()),
    ("saha-getoor-frac", lambda: SahaGetoorGreedy(threshold_fraction=0.25)),
    ("demaine", lambda: ProgressiveGreedyPasses(num_passes=3)),
    ("har-peled", lambda: IterativePruningSetCover(alpha=2, opt_guess=3, seed=101)),
    ("mcgregor-vu", lambda: McGregorVuMaxCoverage(k=2, sketch_size=3, seed=202)),
    ("store-setcover", lambda: StoreEverythingSetCover(solver="greedy")),
    (
        "streaming-maxcover",
        lambda: StreamingMaxCoverage(k=2, epsilon=0.5, solver="greedy", seed=303),
    ),
    ("counting-bound", lambda: CountingBoundEstimator()),
]


@pytest.mark.skipif(not HAS_NUMPY, reason="NumPy backend not installed")
class TestKernelBackendParity:
    """Whole streaming runs must be byte-identical across kernel backends.

    The equivalent of ``REPRO_KERNEL=python`` vs ``REPRO_KERNEL=numpy``
    parity, pinned per-system via ``backend=`` so both run in one process:
    every baseline plus the streaming max-coverage subroutine must produce
    the same :class:`StreamingResult` — solution, estimate, pass count,
    full space report, metadata — on both backends, under adversarial and
    random arrival orders alike.
    """

    @given(coverable_systems(), st.sampled_from([None, 7, 12345]))
    @settings(max_examples=25, deadline=None)
    def test_streaming_results_identical_across_backends(self, system, order_seed):
        order = StreamOrder.ADVERSARIAL if order_seed is None else StreamOrder.RANDOM
        masks = system.masks()
        n = system.universe_size
        for label, build in _PARITY_ALGORITHMS:
            results = {}
            for backend in ("python", "numpy"):
                pinned = SetSystem.from_masks(n, masks, backend=backend)
                assert pinned.backend == backend
                results[backend] = run_streaming_algorithm(
                    build(),
                    pinned,
                    order=order,
                    seed=order_seed,
                    verify_solution=False,
                )
            python_result, numpy_result = results["python"], results["numpy"]
            assert python_result == numpy_result, (
                f"{label} diverged across kernel backends"
            )


class TestSerializationProperties:
    @given(arbitrary_systems())
    @settings(max_examples=40, deadline=None)
    def test_text_round_trip(self, system):
        instance = SetCoverInstance(system)
        rebuilt = loads_instance(dumps_instance(instance))
        assert rebuilt.system == system
