"""Property tests: kernel backend parity and lazy-greedy trace equivalence.

Two families of invariants guard the compute-kernel seam:

* **Backend parity** — on any random system, :class:`NumpyKernel` and
  :class:`PyIntKernel` return identical gains, projections, frequencies,
  unions and sizes (the packed uint64 matrix is a pure representation
  change).
* **Lazy = eager greedy** — the CELF lazy greedy must reproduce the seed
  implementation's full-rescan loop *byte for byte*: same picks, same
  per-step statistics, same exceptions, on every backend, including the
  ``required_mask`` / ``max_sets`` edge cases.
"""

import pytest
from hypothesis import given, settings, strategies as st

from kernel_conformance import SWEPT_BACKENDS
from repro.exceptions import InfeasibleInstanceError
from repro.kernels import PyIntKernel, make_kernel
from repro.setcover.greedy import greedy_cover_trace
from repro.setcover.instance import SetSystem
from repro.setcover.maxcover import greedy_max_coverage
from repro.utils.bitset import bitset_size

# Enumerated from the make_kernel registry (plus the compiled request where
# it degrades) so newly registered backends are covered by these suites
# automatically (no hardcoded name lists).
BACKENDS = SWEPT_BACKENDS
ACCELERATED = [name for name in BACKENDS if name != "python"]


@st.composite
def mask_systems(draw, max_n=96, max_m=12):
    """A universe size and a list of random set masks over it."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    masks = draw(
        st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=m, max_size=m)
    )
    return n, masks


def reference_greedy_trace(system, required_mask=None, max_sets=None):
    """The seed implementation: full rescan of all sets per pick."""
    universe = required_mask
    if universe is None:
        universe = system.uncovered_mask([])
    uncovered = universe
    solution, steps = [], []
    available = set(range(system.num_sets))
    while uncovered:
        best_index = -1
        best_gain = 0
        for index in available:
            gain = bitset_size(system.mask(index) & uncovered)
            if gain > best_gain or (gain == best_gain and gain > 0 and index < best_index):
                best_gain = gain
                best_index = index
        if best_gain == 0:
            raise InfeasibleInstanceError("reference: uncoverable")
        available.remove(best_index)
        uncovered &= ~system.mask(best_index)
        solution.append(best_index)
        steps.append((best_index, best_gain, bitset_size(uncovered)))
        if max_sets is not None and len(solution) >= max_sets and uncovered:
            raise InfeasibleInstanceError("reference: cap exceeded")
    return solution, steps


def reference_greedy_max_coverage(system, k):
    """The seed implementation of greedy max coverage (full rescan)."""
    chosen, covered = [], 0
    available = set(range(system.num_sets))
    for _ in range(min(k, system.num_sets)):
        best_index, best_gain = None, -1
        for index in available:
            gain = bitset_size(system.mask(index) & ~covered)
            if gain > best_gain or (
                gain == best_gain and best_index is not None and index < best_index
            ):
                best_gain = gain
                best_index = index
        if best_index is None or best_gain <= 0:
            break
        chosen.append(best_index)
        available.remove(best_index)
        covered |= system.mask(best_index)
    return chosen, bitset_size(covered)


class TestBackendParity:
    @pytest.mark.skipif(not ACCELERATED, reason="no accelerated backends installed")
    @settings(max_examples=60, deadline=None)
    @given(data=mask_systems(), uncovered_bits=st.integers(min_value=0))
    def test_registered_backends_match_python(self, data, uncovered_bits):
        n, masks = data
        uncovered = uncovered_bits & ((1 << n) - 1)
        py = PyIntKernel(n, masks)
        for backend in ACCELERATED:
            kernel = make_kernel(n, masks, backend=backend)
            assert kernel.gains(uncovered) == py.gains(uncovered), backend
            assert kernel.restrict(uncovered) == py.restrict(uncovered), backend
            assert kernel.element_frequencies() == py.element_frequencies(), backend
            assert kernel.union() == py.union(), backend
            assert kernel.set_sizes() == py.set_sizes(), backend
            for index in range(len(masks)):
                assert kernel.gain(index, uncovered) == py.gain(index, uncovered)

    @settings(max_examples=40, deadline=None)
    @given(data=mask_systems())
    def test_frequencies_sum_to_incidences(self, data):
        n, masks = data
        system = SetSystem.from_masks(n, masks)
        assert sum(system.element_frequencies()) == system.incidence_count()


class TestGainTrackerParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=50, deadline=None)
    @given(
        data=mask_systems(max_n=48, max_m=8),
        covers=st.lists(st.integers(min_value=0), min_size=0, max_size=6),
    )
    def test_tracker_tracks_best_gain_index(self, backend, data, covers):
        """After any sequence of disjoint covers the tracker's pick equals a
        fresh batched argmax — the exactness invariant of gain maintenance."""
        n, masks = data
        kernel = make_kernel(n, masks, backend=backend)
        uncovered = (1 << n) - 1
        tracker = kernel.gain_tracker(uncovered)
        assert tracker.best() == kernel.best_gain_index(uncovered)
        for cover_bits in covers:
            newly = cover_bits & uncovered
            tracker.cover(newly)
            uncovered &= ~newly
            assert tracker.best() == kernel.best_gain_index(uncovered)


class TestLazyGreedyEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=60, deadline=None)
    @given(data=mask_systems())
    def test_trace_identical_to_reference(self, backend, data):
        n, masks = data
        system = SetSystem.from_masks(n, masks, backend=backend)
        try:
            expected = reference_greedy_trace(system)
        except InfeasibleInstanceError:
            with pytest.raises(InfeasibleInstanceError):
                greedy_cover_trace(system)
            return
        trace = greedy_cover_trace(system)
        assert trace.solution == expected[0]
        assert [
            (s.chosen_set, s.newly_covered, s.remaining_uncovered) for s in trace.steps
        ] == expected[1]

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=60, deadline=None)
    @given(data=mask_systems(), required_bits=st.integers(min_value=0), cap=st.integers(min_value=1, max_value=6))
    def test_required_mask_and_cap_edges(self, backend, data, required_bits, cap):
        n, masks = data
        system = SetSystem.from_masks(n, masks, backend=backend)
        required = required_bits & ((1 << n) - 1)
        try:
            expected = reference_greedy_trace(system, required_mask=required, max_sets=cap)
        except InfeasibleInstanceError:
            with pytest.raises(InfeasibleInstanceError):
                greedy_cover_trace(system, required_mask=required, max_sets=cap)
            return
        trace = greedy_cover_trace(system, required_mask=required, max_sets=cap)
        assert trace.solution == expected[0]

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=60, deadline=None)
    @given(data=mask_systems(), k=st.integers(min_value=0, max_value=8))
    def test_max_coverage_identical_to_reference(self, backend, data, k):
        n, masks = data
        system = SetSystem.from_masks(n, masks, backend=backend)
        assert greedy_max_coverage(system, k) == reference_greedy_max_coverage(system, k)
