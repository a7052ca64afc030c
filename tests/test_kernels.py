"""Unit tests for the pluggable compute kernels (repro.kernels)."""

import pickle
import warnings

import pytest

import repro.kernels as kernels
from kernel_conformance import SWEPT_BACKENDS, build_kernel
from repro.core.element_sampling import element_sample, element_sample_mask
from repro.kernels import (
    AUTO_NUMPY_THRESHOLD,
    BACKENDS,
    KERNEL_ENV_VAR,
    PyIntKernel,
    kernel_registry,
    make_kernel,
    registered_backends,
    resolve_backend,
)
from repro.setcover.instance import SetSystem
from repro.utils.bitset import bitset_from_iterable, bitset_to_set
from repro.utils.rng import RandomSource

MASKS = [0b1011, 0b0110, 0b0000, 0b11111, 0b10000]
N = 5

requires_numpy = pytest.mark.skipif(not kernels.HAS_NUMPY, reason="NumPy not installed")


def swept_kernels():
    """One raw kernel per swept backend request, labelled by the request."""
    return [pytest.param(build_kernel(name, N, MASKS), id=name) for name in SWEPT_BACKENDS]


class TestBackendResolution:
    def test_explicit_python(self):
        assert resolve_backend("python", 10**6, 10**6) == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("fortran")

    def test_auto_small_system_stays_python(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert resolve_backend("auto", 4, 4) == "python"

    @requires_numpy
    def test_auto_large_system_picks_numpy(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        monkeypatch.setattr(kernels, "HAS_NUMBA", False)
        assert resolve_backend("auto", 1 << 12, 1 << 12) == "numpy"

    @requires_numpy
    def test_env_var_forces_python(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "python")
        assert resolve_backend("auto", 1 << 12, 1 << 12) == "python"

    @requires_numpy
    def test_env_var_forces_numpy(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
        assert resolve_backend("auto", 2, 2) == "numpy"

    def test_numpy_missing_falls_back(self, monkeypatch):
        """Auto selection degrades gracefully on a NumPy-less install."""
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
        assert resolve_backend("auto", 1 << 12, 1 << 12) == "python"
        assert registered_backends() == ["python"]

    def test_numpy_missing_env_hint_degrades(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
        monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
        assert resolve_backend("auto", 1 << 12, 1 << 12) == "python"

    def test_numpy_missing_explicit_request_raises(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
        with pytest.raises(ValueError):
            resolve_backend("numpy")

    def test_env_var_typo_rejected(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "nunpy")
        with pytest.raises(ValueError):
            resolve_backend("auto", 4, 4)

    def test_make_kernel_python(self):
        kernel = make_kernel(N, MASKS, backend="python")
        assert kernel.backend == "python"
        assert isinstance(kernel, PyIntKernel)

    @requires_numpy
    def test_make_kernel_numpy(self):
        kernel = make_kernel(N, MASKS, backend="numpy")
        assert kernel.backend == "numpy"

    def test_registry_lists_tiers_in_ladder_order(self):
        assert list(kernel_registry()) == registered_backends()
        assert registered_backends()[0] == "python"
        assert registered_backends() == sorted(registered_backends(), key=BACKENDS.index)


@requires_numpy
class TestCompiledResolutionAndFallbackLadder:
    """The compiled tier's selection rules and degradation ladder: it is
    registered only with numba; a compiled request elsewhere degrades
    silently to the highest registered tier below it; a failed build walks
    the registry down a tier at a time; the bytes never change."""

    def test_explicit_compiled_resolves(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAS_NUMBA", True)
        assert resolve_backend("compiled", 4, 4) == "compiled"
        monkeypatch.setattr(kernels, "HAS_NUMBA", False)
        assert resolve_backend("compiled", 4, 4) == "numpy"

    def test_env_var_forces_compiled(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "compiled")
        monkeypatch.setattr(kernels, "HAS_NUMBA", True)
        assert resolve_backend("auto", 2, 2) == "compiled"
        monkeypatch.setattr(kernels, "HAS_NUMBA", False)
        assert resolve_backend("auto", 2, 2) == "numpy"

    def test_auto_tier_requires_numba_for_compiled(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        monkeypatch.setattr(kernels, "HAS_NUMBA", False)
        assert resolve_backend("auto", 1 << 12, 1 << 12) == "numpy"
        monkeypatch.setattr(kernels, "HAS_NUMBA", True)
        assert resolve_backend("auto", 1 << 12, 1 << 12) == "compiled"

    def test_compiled_registered_only_with_numba(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAS_NUMBA", False)
        assert registered_backends() == ["python", "numpy"]
        monkeypatch.setattr(kernels, "HAS_NUMBA", True)
        assert registered_backends() == ["python", "numpy", "compiled"]

    def test_compiled_kernel_needs_numba(self, monkeypatch):
        from repro.kernels import compiled

        monkeypatch.setattr(compiled, "HAS_NUMBA", False)
        with pytest.raises(ImportError, match="numba"):
            compiled.CompiledKernel(N, MASKS)

    def test_make_kernel_compiled_flavour(self):
        from repro.kernels.compiled import CompiledKernel
        from repro.kernels.numpy_backend import NumpyKernel

        kernel = make_kernel(N, MASKS, backend="compiled")
        assert type(kernel) is (CompiledKernel if kernels.HAS_NUMBA else NumpyKernel)
        assert kernel.backend == resolve_backend("compiled")
        assert kernel.gains(0b11111) == PyIntKernel(N, MASKS).gains(0b11111)

    def test_numpy_missing_compiled_degrades_to_python_silently(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("compiled") == "python"
            kernel = make_kernel(N, MASKS, backend="compiled")
        assert isinstance(kernel, PyIntKernel)
        assert kernel.gains(0b11111) == PyIntKernel(N, MASKS).gains(0b11111)

    def test_numpy_missing_env_hint_compiled_degrades(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
        monkeypatch.setenv(KERNEL_ENV_VAR, "compiled")
        assert resolve_backend("auto", 1 << 12, 1 << 12) == "python"

    def test_failed_compiled_build_falls_back_to_numpy(self, monkeypatch):
        """One broken rung falls exactly one rung, not all the way down.

        Registering a compiled tier whose build fails runs the ladder on any
        host, numba or not.
        """
        from repro.kernels.numpy_backend import NumpyKernel

        def boom(*args, **kwargs):
            raise RuntimeError("simulated compiled-build failure")

        monkeypatch.setattr(kernels, "HAS_NUMBA", True)
        monkeypatch.setattr(kernels, "_factory_compiled", boom)
        kernel = make_kernel(N, MASKS, backend="compiled")
        underlying = getattr(kernel, "_kernel", kernel)
        assert type(underlying) is NumpyKernel
        assert kernel.gains(0b11111) == PyIntKernel(N, MASKS).gains(0b11111)

    def test_injected_build_faults_fall_to_pyint(self, monkeypatch):
        """A rate-1 kernel.make fault breaks every accelerated rung: the
        ladder bottoms out at the always-available pure-Python kernel."""
        from repro.resilience.faults import fault_plan_active, parse_fault_spec

        monkeypatch.setattr(kernels, "HAS_NUMBA", True)
        with fault_plan_active(parse_fault_spec("seed=1,kernel.make:raise:1:1")):
            kernel = make_kernel(N, MASKS, backend="compiled")
        underlying = getattr(kernel, "_kernel", kernel)
        assert isinstance(underlying, PyIntKernel)
        assert kernel.gains(0b11111) == PyIntKernel(N, MASKS).gains(0b11111)


class TestKernelPrimitives:
    @pytest.mark.parametrize("kernel", swept_kernels())
    def test_gains_match_definition(self, kernel):
        uncovered = 0b10101
        expected = [bin(mask & uncovered).count("1") for mask in MASKS]
        assert kernel.gains(uncovered) == expected
        for index in range(len(MASKS)):
            assert kernel.gain(index, uncovered) == expected[index]

    @pytest.mark.parametrize("kernel", swept_kernels())
    def test_restrict(self, kernel):
        keep = 0b01110
        assert kernel.restrict(keep) == [mask & keep for mask in MASKS]

    @pytest.mark.parametrize("kernel", swept_kernels())
    def test_element_frequencies(self, kernel):
        expected = [
            sum(1 for mask in MASKS if mask >> element & 1) for element in range(N)
        ]
        assert kernel.element_frequencies() == expected

    @pytest.mark.parametrize("kernel", swept_kernels())
    def test_union_and_sizes(self, kernel):
        union = 0
        for mask in MASKS:
            union |= mask
        assert kernel.union() == union
        assert kernel.set_sizes() == [bin(mask).count("1") for mask in MASKS]

    @pytest.mark.parametrize("kernel", swept_kernels())
    def test_query_mask_beyond_universe(self, kernel):
        """Bits past the universe in a query mask are dropped identically."""
        wide = (1 << 300) | 0b10101
        assert kernel.gains(wide) == kernel.gains(0b10101)
        assert kernel.restrict(wide) == kernel.restrict(0b10101)
        assert kernel.best_gain_index(wide) == kernel.best_gain_index(0b10101)

    @pytest.mark.parametrize("kernel", swept_kernels())
    def test_empty_universe(self, kernel):
        empty = type(kernel)(0, [])
        assert empty.gains(0) == []
        assert empty.element_frequencies() == []
        assert empty.union() == 0

    @pytest.mark.parametrize("kernel", swept_kernels())
    def test_element_lists_ascending(self, kernel):
        expected = [
            [element for element in range(N) if mask >> element & 1] for mask in MASKS
        ]
        lists = kernel.element_lists()
        assert lists == expected
        assert all(isinstance(e, int) for row in lists for e in row)

    @pytest.mark.parametrize("kernel", swept_kernels())
    def test_element_lists_restricted_to_indices(self, kernel):
        full = kernel.element_lists()
        picked = [len(MASKS) - 1, 0]
        assert kernel.element_lists(picked) == [full[i] for i in picked]
        assert kernel.element_lists([]) == []

    @pytest.mark.parametrize("kernel", swept_kernels())
    def test_claim_resolution_prefers_largest_key(self, kernel):
        keys = list(range(1, len(MASKS) + 1))
        winners = kernel.claim_resolution(keys)
        for element in range(N):
            containing = [i for i in range(len(MASKS)) if MASKS[i] >> element & 1]
            expected = max(containing, key=lambda i: keys[i], default=-1)
            assert winners[element] == expected

    @pytest.mark.parametrize("kernel", swept_kernels())
    def test_claim_resolution_zero_keys_never_claim(self, kernel):
        winners = kernel.claim_resolution([0] * len(MASKS))
        assert winners == [-1] * N

    @pytest.mark.parametrize("kernel", swept_kernels())
    def test_claim_resolution_ties_to_smallest_index(self, kernel):
        winners = kernel.claim_resolution([5] * len(MASKS))
        for element in range(N):
            containing = [i for i in range(len(MASKS)) if MASKS[i] >> element & 1]
            assert winners[element] == (containing[0] if containing else -1)

    @requires_numpy
    def test_wide_universe_packing_round_trip(self):
        """Masks spanning several uint64 words survive pack/unpack exactly."""
        from repro.kernels.numpy_backend import NumpyKernel

        n = 200
        masks = [(1 << 199) | (1 << 64) | 1, (1 << n) - 1, 0, (1 << 130) - (1 << 60)]
        kernel = NumpyKernel(n, masks)
        assert kernel.restrict((1 << n) - 1) == masks
        assert kernel.union() == masks[0] | masks[1] | masks[3]
        assert kernel.set_sizes() == [bin(mask).count("1") for mask in masks]


class TestSetSystemIntegration:
    def test_default_backend_is_auto(self):
        system = SetSystem(N, [[0, 1], [2]])
        assert system.requested_backend == "auto"
        assert system.backend in registered_backends()

    def test_explicit_backend_respected(self):
        system = SetSystem(N, [[0, 1], [2]], backend="python")
        assert system.backend == "python"

    @requires_numpy
    def test_numpy_backend_respected(self):
        system = SetSystem(N, [[0, 1], [2]], backend="numpy")
        assert system.backend == "numpy"

    def test_backend_survives_derivation(self):
        system = SetSystem(N, [[0, 1], [2, 3]], backend="python")
        assert system.restrict_to_elements([0, 2]).requested_backend == "python"
        assert system.subsystem([1]).requested_backend == "python"

    def test_restrict_accepts_mask(self):
        system = SetSystem(N, [[0, 1], [2, 3]])
        by_iterable = system.restrict_to_elements([0, 2])
        by_mask = system.restrict_to_elements(0b00101)
        assert by_iterable == by_mask

    def test_kernel_cached(self):
        system = SetSystem(N, [[0, 1]])
        assert system.kernel() is system.kernel()

    def test_pickle_round_trip_drops_kernel(self):
        system = SetSystem(N, [[0, 1], [2]], backend="python")
        system.kernel()  # force construction
        clone = pickle.loads(pickle.dumps(system))
        assert clone == system
        assert clone._kernel is None
        assert clone.element_frequencies() == system.element_frequencies()


class TestRandomBatch:
    def test_matches_sequential_draws(self):
        a, b = RandomSource(1234), RandomSource(1234)
        batch = a.random_batch(1000)
        assert batch == [b.random() for _ in range(1000)]

    def test_stream_advances_identically(self):
        a, b = RandomSource(77), RandomSource(77)
        a.random_batch(500)
        [b.random() for _ in range(500)]
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_small_batch_matches(self):
        a, b = RandomSource(5), RandomSource(5)
        assert a.random_batch(3) == [b.random() for _ in range(3)]

    def test_zero_and_negative(self):
        assert RandomSource(1).random_batch(0) == []
        with pytest.raises(ValueError):
            RandomSource(1).random_batch(-1)


class TestGainTrackers:
    def tracker_systems(self):
        masks = [0b110110, 0b011011, 0b101000, 0b000111, 0b111111, 0b000000]
        return 6, masks

    @pytest.mark.parametrize("kernel", swept_kernels())
    def test_tracker_matches_best_gain_index(self, kernel):
        n = N
        uncovered = (1 << n) - 1
        tracker = kernel.gain_tracker(uncovered)
        for pick_mask in (0b00011, 0b01100, 0b10000):
            assert tracker.best() == kernel.best_gain_index(uncovered)
            newly = pick_mask & uncovered
            tracker.cover(newly)
            uncovered &= ~newly
        assert tracker.best() == kernel.best_gain_index(uncovered)

    def test_forced_escape_keeps_trace_identical(self, monkeypatch):
        """With a zero stale-pop budget every pick runs on the tracker."""
        import repro.setcover.greedy as greedy_module
        from repro.setcover.greedy import greedy_cover_trace
        from repro.setcover.maxcover import greedy_max_coverage

        n = 40
        masks = [((0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 40) - 1)) | 1 for i in range(12)]
        masks += [0xFF << (8 * i) for i in range(5)]  # stripes keep it coverable
        reference = {}
        for backend in registered_backends():
            system = SetSystem.from_masks(n, masks, backend=backend)
            reference[backend] = (
                greedy_cover_trace(system).solution,
                greedy_max_coverage(system, 5),
            )
        monkeypatch.setattr(greedy_module, "_STALE_POP_ESCAPE", 0)
        for backend in registered_backends():
            system = SetSystem.from_masks(n, masks, backend=backend)
            assert greedy_cover_trace(system).solution == reference[backend][0]
            assert greedy_max_coverage(system, 5) == reference[backend][1]
        values = list(reference.values())
        assert all(value == values[0] for value in values)  # backends agree too

    @requires_numpy
    def test_tracker_first_second_run_identical(self):
        """A warm kernel (inverted index built) must not change the trace."""
        import repro.setcover.greedy as greedy_module
        from repro.setcover.greedy import greedy_cover_trace

        n = 30
        masks = [(0b111111 << (3 * i)) & ((1 << 30) - 1) | (i % 5) for i in range(10)]
        system = SetSystem.from_masks(n, masks, backend="numpy")
        first = greedy_cover_trace(system).solution
        system.kernel()._inverted_index()  # warm: prefers_tracker() flips on
        assert system.kernel().prefers_tracker()
        assert greedy_cover_trace(system).solution == first


class TestElementSampleMask:
    def test_matches_set_based_sampler(self):
        mask = bitset_from_iterable(range(0, 700, 3))
        for seed in (1, 2, 3):
            via_set = element_sample(bitset_to_set(mask), 0.3, seed=seed)
            via_mask = element_sample_mask(mask, 0.3, seed=seed)
            assert via_mask == bitset_from_iterable(via_set)

    def test_probability_extremes(self):
        mask = 0b101101
        assert element_sample_mask(mask, 1.0, seed=1) == mask
        assert element_sample_mask(mask, 0.0, seed=1) == 0

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            element_sample_mask(0b1, 1.5)
