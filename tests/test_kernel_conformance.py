"""Drive the cross-backend conformance harness over the kernel registry.

The harness itself lives in ``tests/kernel_conformance.py``; this file only
parameterizes it: every swept backend request × every adversarial shape
(once as is and once per position of the trackers' rescan-to-index switch),
plus numba thread-count sweeps for the compiled backend and a telemetry leg
proving ``kernel.calls.*`` metering survives the compiled request's paths.
"""

import pytest

from kernel_conformance import (
    CONFORMANCE_CASES,
    SWEPT_BACKENDS,
    assert_kernel_conformance,
    assert_tracker_handover_conformance,
    build_compiled_kernel,
    build_kernel,
    numba_threads,
)
from repro.kernels import kernel_registry, resolve_backend
from repro.setcover.instance import SetSystem

CASE_IDS = sorted(CONFORMANCE_CASES)


@pytest.mark.parametrize("backend", SWEPT_BACKENDS)
@pytest.mark.parametrize("case", CASE_IDS)
def test_backend_conforms_to_reference(backend, case):
    universe_size, masks = CONFORMANCE_CASES[case]
    kernel = build_kernel(backend, universe_size, masks)
    assert_kernel_conformance(kernel, universe_size, masks)


@pytest.mark.parametrize("backend", SWEPT_BACKENDS)
@pytest.mark.parametrize("case", CASE_IDS)
def test_tracker_handover_conforms_to_reference(backend, case):
    """The rescan-to-index switch may land on any pick without changing it."""
    universe_size, masks = CONFORMANCE_CASES[case]
    assert_tracker_handover_conformance(backend, universe_size, masks)


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("case", CASE_IDS)
def test_compiled_conforms_at_every_thread_count(threads, case):
    """Parallel sweeps must be deterministic: same bytes at 1, 2, 4 threads.

    With numba the jitted kernel runs in multi-chunk form on ``threads``
    numba threads; without it the ``compiled`` request degrades, there are
    no threads to vary, and the degraded kernel must conform all the same.
    """
    universe_size, masks = CONFORMANCE_CASES[case]
    with numba_threads(threads):
        kernel = build_compiled_kernel(universe_size, masks)
        assert_kernel_conformance(kernel, universe_size, masks)


def test_registry_factories_accept_packed_buffers():
    """Packed transport buffers are adopted without changing any observable."""
    universe_size, masks = CONFORMANCE_CASES["three-words"]
    packed = SetSystem.from_masks(universe_size, masks).to_packed().buffer
    for factory in kernel_registry().values():
        adopted = factory(universe_size, masks, packed=packed)
        assert_kernel_conformance(adopted, universe_size, masks)


def test_metering_counts_compiled_primitives():
    """kernel.calls.* / kernel.words.* accumulate through whatever kernel a
    ``compiled`` request builds — the jitted paths where numba is installed."""
    from repro.kernels import make_kernel
    from repro.telemetry.metrics import MetricsRegistry, _ACTIVE

    universe_size, masks = CONFORMANCE_CASES["mixed-random"]
    registry = MetricsRegistry()
    token = _ACTIVE.set(registry)
    try:
        kernel = make_kernel(universe_size, masks, backend="compiled")
        kernel.gains((1 << universe_size) - 1)
        kernel.claim_resolution([1] * len(masks))
        tracker = kernel.gain_tracker((1 << universe_size) - 1)
        tracker.best()
        tracker.cover(masks[0])
    finally:
        _ACTIVE.reset(token)
    assert kernel.backend == resolve_backend("compiled")
    assert registry.counters["kernel.calls.gains"] == 1
    assert registry.counters["kernel.calls.claim_resolution"] == 1
    assert registry.counters["kernel.calls.gain_tracker"] == 1
    assert registry.counters["kernel.calls.tracker_best"] == 1
    assert registry.counters["kernel.calls.tracker_cover"] == 1
    assert registry.counters["kernel.words.gains"] > 0


def test_conformance_suite_is_importable_as_a_library():
    """Future backends import the harness; keep its public surface stable."""
    import kernel_conformance

    for name in (
        "CONFORMANCE_CASES",
        "assert_backend_conformance",
        "assert_kernel_conformance",
        "assert_tracker_handover_conformance",
        "build_kernel",
        "key_patterns",
        "query_masks",
    ):
        assert hasattr(kernel_conformance, name)
