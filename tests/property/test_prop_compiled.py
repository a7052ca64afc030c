"""Hypothesis differential suite for the compiled kernel backend.

Random set systems are pushed through *whole* solver and streaming runs on
every backend the registry knows about, and every observable is compared
against the pure-Python reference:

* full greedy set-cover traces (picks, per-step statistics, exceptions);
* whole :class:`~repro.streaming.algorithm_base.StreamingResult` objects for
  the one-pass baselines (Emek–Rosén exercises the parallel claim sweep,
  store-everything exercises greedy over restricted systems);
* the compiled backend at numba thread counts {1, 2, 4} with deliberately
  tiny chunks, pinning the parallel sweeps deterministic — byte-identical
  output at every thread count, on every drawn system.  Without numba the
  ``compiled`` request degrades and these legs pin the degraded kernel.

Backends are enumerated from :data:`kernel_conformance.SWEPT_BACKENDS`
(the registry plus the ``compiled`` request), so a future fourth backend
lands in this differential suite with no edits.
"""

import pytest
from hypothesis import given, settings, strategies as st

from kernel_conformance import (
    SWEPT_BACKENDS,
    assert_kernel_conformance,
    build_compiled_kernel,
    key_patterns,
    numba_threads,
)
from repro.baselines import EmekRosenSemiStreaming, StoreEverythingSetCover
from repro.exceptions import InfeasibleInstanceError
from repro.kernels.pyint import PyIntKernel
from repro.setcover.greedy import greedy_cover_trace
from repro.setcover.instance import SetSystem
from repro.streaming.engine import run_streaming_algorithm
from repro.streaming.stream import StreamOrder

BACKENDS = SWEPT_BACKENDS


@st.composite
def mask_systems(draw, max_n=80, max_m=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    masks = draw(
        st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=m, max_size=m)
    )
    return n, masks


@st.composite
def coverable_mask_systems(draw, max_n=14, max_m=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    universe = (1 << n) - 1
    masks = draw(
        st.lists(st.integers(min_value=0, max_value=universe), min_size=m, max_size=m)
    )
    union = 0
    for mask in masks:
        union |= mask
    if union != universe:
        masks[0] |= universe & ~union
    return n, masks


class TestWholeGreedyRunParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=40, deadline=None)
    @given(data=mask_systems())
    def test_full_trace_matches_python_backend(self, backend, data):
        n, masks = data
        reference = SetSystem.from_masks(n, masks, backend="python")
        system = SetSystem.from_masks(n, masks, backend=backend)
        try:
            expected = greedy_cover_trace(reference)
        except InfeasibleInstanceError:
            with pytest.raises(InfeasibleInstanceError):
                greedy_cover_trace(system)
            return
        actual = greedy_cover_trace(system)
        assert actual.solution == expected.solution
        assert actual.steps == expected.steps


class TestWholeStreamingRunParity:
    @settings(max_examples=25, deadline=None)
    @given(data=coverable_mask_systems(), order_seed=st.sampled_from([None, 7, 12345]))
    def test_streaming_results_identical_across_registry(self, data, order_seed):
        n, masks = data
        order = StreamOrder.ADVERSARIAL if order_seed is None else StreamOrder.RANDOM
        for build in (
            EmekRosenSemiStreaming,  # one batched claim_resolution pass
            lambda: StoreEverythingSetCover(solver="greedy"),
        ):
            results = {}
            for backend in BACKENDS:
                pinned = SetSystem.from_masks(n, masks, backend=backend)
                results[backend] = run_streaming_algorithm(
                    build(),
                    pinned,
                    order=order,
                    seed=order_seed,
                    verify_solution=False,
                )
            for backend in BACKENDS[1:]:
                assert results[backend] == results["python"], (
                    f"{backend} StreamingResult diverged from python"
                )


class TestThreadDeterminism:
    """Thread counts {1, 2, 4} must be byte-identical to serial and PyInt."""

    @settings(max_examples=25, deadline=None)
    @given(data=mask_systems(max_n=70, max_m=9), uncovered_bits=st.integers(min_value=0))
    def test_primitives_identical_at_every_thread_count(self, data, uncovered_bits):
        n, masks = data
        uncovered = uncovered_bits & ((1 << n) - 1)
        reference = PyIntKernel(n, masks)
        expected_claims = {
            name: reference.claim_resolution(keys)
            for name, keys in key_patterns(len(masks))
        }
        for threads in (1, 2, 4):
            with numba_threads(threads):
                kernel = build_compiled_kernel(n, masks)
                assert kernel.gains(uncovered) == reference.gains(uncovered)
                assert kernel.best_gain_index(uncovered) == reference.best_gain_index(
                    uncovered
                )
                assert kernel.element_frequencies() == reference.element_frequencies()
                for name, keys in key_patterns(len(masks)):
                    assert kernel.claim_resolution(keys) == expected_claims[name], (
                        threads,
                        name,
                    )

    @settings(max_examples=15, deadline=None)
    @given(data=mask_systems(max_n=48, max_m=8))
    def test_full_conformance_at_every_thread_count(self, data):
        n, masks = data
        for threads in (1, 2, 4):
            with numba_threads(threads):
                assert_kernel_conformance(build_compiled_kernel(n, masks), n, masks)

    @settings(max_examples=15, deadline=None)
    @given(data=coverable_mask_systems())
    def test_streaming_result_identical_at_every_thread_count(self, data):
        """Whole Emek–Rosén runs (claim-sweep heavy) pinned across threads,
        and to the pure-Python run."""
        n, masks = data

        def run(backend):
            return run_streaming_algorithm(
                EmekRosenSemiStreaming(),
                SetSystem.from_masks(n, masks, backend=backend),
                order=StreamOrder.ADVERSARIAL,
                verify_solution=False,
            )

        expected = run("python")
        for threads in (1, 2, 4):
            with numba_threads(threads):
                assert run("compiled") == expected, threads
