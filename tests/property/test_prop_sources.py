"""Property tests: instance backings are pure representation changes.

For any random mask system, the heap / shared-memory / mmap backings and
the windowed :class:`ChunkedKernel` must agree with the resident reference
kernel on every observable — gains, frequencies, unions, claim resolution,
and the full greedy trace.  Backings may change where bytes live, never
what any consumer computes.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import pytest

from repro.kernels import PyIntKernel, registered_backends
from repro.kernels.chunked import ChunkedKernel
from repro.setcover.instance import SetSystem
from repro.setcover.source import (
    HeapSource,
    MmapSource,
    SharedMemorySource,
    write_container,
)

# Enumerated from the make_kernel registry so newly registered backends are
# covered by the windowed-kernel parity sweep automatically.
BACKENDS = registered_backends()

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@st.composite
def mask_systems(draw, max_n=80, max_m=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    masks = draw(
        st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=m, max_size=m)
    )
    return n, masks


def each_backing(system):
    """Yield one open source per backing kind over the same packed bytes."""
    packed = system.to_packed()
    yield HeapSource.from_packed(packed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prop.repro"
        write_container(path, packed)
        source = MmapSource.open(path)
        try:
            yield source
        finally:
            source.close()
    shared = SharedMemorySource.publish(packed)
    try:
        yield shared
    finally:
        shared.close()


class TestBackingParity:
    @given(mask_systems(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_chunked_kernel_matches_reference_on_every_backing(self, case, chunk_rows):
        n, masks = case
        system = SetSystem.from_masks(n, masks)
        reference = PyIntKernel(n, masks)
        uncovered = (1 << n) - 1
        keys = reference.set_sizes()
        for source in each_backing(system):
            for backend in BACKENDS:
                kernel = ChunkedKernel(source, backend=backend, chunk_rows=chunk_rows)
                assert kernel.gains(uncovered) == reference.gains(uncovered)
                assert kernel.best_gain_index(uncovered) == reference.best_gain_index(
                    uncovered
                )
                assert kernel.element_frequencies() == reference.element_frequencies()
                assert kernel.union() == reference.union()
                assert kernel.set_sizes() == reference.set_sizes()
                assert kernel.claim_resolution(keys) == reference.claim_resolution(keys)

    @given(mask_systems())
    @settings(max_examples=25, deadline=None)
    def test_views_and_digests_identical_across_backings(self, case):
        n, masks = case
        system = SetSystem.from_masks(n, masks)
        expected = system.to_packed().buffer
        digests = set()
        for source in each_backing(system):
            assert bytes(source.view()) == expected
            digests.add(source.digest())
            assert [source.mask_at(i) for i in range(len(masks))] == list(masks)
        assert len(digests) == 1

    @given(mask_systems(max_n=48, max_m=8))
    @settings(max_examples=20, deadline=None)
    def test_windowed_greedy_trace_matches_resident(self, case):
        from repro.setcover.greedy import greedy_cover_trace

        n, masks = case
        system = SetSystem.from_masks(n, masks)
        coverable = system.coverage_mask(range(len(masks)))
        expected = greedy_cover_trace(system, required_mask=coverable)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "greedy.repro"
            write_container(path, system.to_packed())
            windowed = SetSystem.from_source(MmapSource.open(path))
            actual = greedy_cover_trace(windowed, required_mask=coverable)
            windowed.close()
        assert actual.solution == expected.solution
        assert actual.steps == expected.steps
