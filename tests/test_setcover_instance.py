"""Unit tests for SetSystem / SetCoverInstance."""

import pickle

import pytest

from repro.kernels import AUTO_NUMPY_THRESHOLD, HAS_NUMPY, KERNEL_ENV_VAR
from repro.setcover.greedy import greedy_set_cover
from repro.setcover.instance import (
    PackedSetSystem,
    SetCoverInstance,
    SetSystem,
    packed_row_bytes,
)
from repro.utils.env import env_overrides
from repro.workloads.random_instances import random_instance

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="NumPy backend not installed")


def _sample_system(universe_size=48, num_sets=20, seed=3) -> SetSystem:
    return random_instance(universe_size, num_sets, density=0.15, seed=seed).system


class TestConstruction:
    def test_basic_sizes(self, tiny_system):
        assert tiny_system.universe_size == 6
        assert tiny_system.num_sets == 6
        assert len(tiny_system) == 6

    def test_elements_round_trip(self, tiny_system):
        assert tiny_system.elements(0) == frozenset({0, 1, 2})
        assert tiny_system[1] == frozenset({3, 4, 5})

    def test_out_of_universe_rejected(self):
        with pytest.raises(ValueError):
            SetSystem(3, [[0, 5]])

    def test_negative_universe_rejected(self):
        with pytest.raises(ValueError):
            SetSystem(-1, [])

    def test_names_default(self, tiny_system):
        assert tiny_system.name(0) == "S0"
        assert tiny_system.name(5) == "S5"

    def test_names_custom(self):
        system = SetSystem(2, [[0], [1]], names=["left", "right"])
        assert system.names == ["left", "right"]

    def test_names_wrong_length(self):
        with pytest.raises(ValueError):
            SetSystem(2, [[0], [1]], names=["only-one"])

    def test_from_masks(self):
        system = SetSystem.from_masks(4, [0b0011, 0b1100])
        assert system.elements(0) == frozenset({0, 1})
        assert system.elements(1) == frozenset({2, 3})

    def test_from_masks_out_of_range(self):
        with pytest.raises(ValueError):
            SetSystem.from_masks(2, [0b100])

    def test_equality_and_hash(self):
        a = SetSystem(3, [[0], [1, 2]])
        b = SetSystem(3, [[0], [1, 2]])
        c = SetSystem(3, [[0], [1]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_iteration(self, tiny_system):
        sets = list(tiny_system)
        assert sets[2] == frozenset({0, 3})
        assert len(sets) == 6


class TestCoverage:
    def test_coverage_counts(self, tiny_system):
        assert tiny_system.coverage([0]) == 3
        assert tiny_system.coverage([0, 1]) == 6
        assert tiny_system.coverage([]) == 0

    def test_covers_universe(self, tiny_system):
        assert tiny_system.covers_universe([0, 1])
        assert not tiny_system.covers_universe([0])
        assert not tiny_system.covers_universe([])

    def test_empty_universe_covered_by_nothing(self):
        system = SetSystem(0, [])
        assert system.covers_universe([])

    def test_uncovered_mask(self, tiny_system):
        missing = tiny_system.uncovered_mask([0])
        assert missing == 0b111000

    def test_element_frequencies(self, tiny_system):
        freqs = tiny_system.element_frequencies()
        assert len(freqs) == 6
        assert freqs[0] == 3  # element 0 in sets 0, 2, 5

    def test_is_coverable(self, tiny_system):
        assert tiny_system.is_coverable()
        assert not SetSystem(3, [[0], [1]]).is_coverable()


class TestTransformations:
    def test_restrict_to_elements(self, tiny_system):
        projected = tiny_system.restrict_to_elements([0, 3])
        assert projected.universe_size == 6
        assert projected.elements(0) == frozenset({0})
        assert projected.elements(2) == frozenset({0, 3})

    def test_subsystem(self, tiny_system):
        sub = tiny_system.subsystem([1, 3])
        assert sub.num_sets == 2
        assert sub.elements(0) == frozenset({3, 4, 5})
        assert sub.names == ["S1", "S3"]


class TestSetCoverInstance:
    def test_planted_opt_recorded(self, tiny_system):
        instance = SetCoverInstance(tiny_system, planted_opt=2)
        assert instance.planted_opt == 2

    def test_invalid_planted_opt(self, tiny_system):
        with pytest.raises(ValueError):
            SetCoverInstance(tiny_system, planted_opt=0)


class TestPackedForm:
    def test_round_trip_masks_and_names(self):
        system = _sample_system()
        packed = system.to_packed()
        assert packed.num_sets == system.num_sets
        assert len(packed.buffer) == system.num_sets * packed_row_bytes(
            system.universe_size
        )
        rebuilt = SetSystem.from_packed(packed)
        assert rebuilt == system
        assert rebuilt.names == system.names

    def test_custom_names_survive(self):
        system = SetSystem(4, [[0, 1], [2, 3]], names=["left", "right"])
        rebuilt = SetSystem.from_packed(system.to_packed())
        assert rebuilt.names == ["left", "right"]

    def test_default_names_ship_no_strings(self):
        assert _sample_system().to_packed().names is None

    def test_buffer_length_is_validated(self):
        with pytest.raises(ValueError, match="packed buffer"):
            PackedSetSystem(universe_size=8, num_sets=2, buffer=b"\x00")

    def test_empty_system(self):
        system = SetSystem(5, [])
        rebuilt = SetSystem.from_packed(system.to_packed())
        assert rebuilt == system
        assert rebuilt.num_sets == 0

    def test_pickle_ships_packed_buffer(self):
        system = _sample_system()
        state = system.__getstate__()
        assert isinstance(state["buffer"], bytes)
        assert "_masks" not in state
        rebuilt = pickle.loads(pickle.dumps(system))
        assert rebuilt == system
        assert rebuilt._backend == system._backend
        assert greedy_set_cover(rebuilt) == greedy_set_cover(system)

    @needs_numpy
    def test_numpy_kernel_adopts_transported_buffer(self):
        # The pickle carries no kernel pin: the far side's ``auto`` picks
        # numpy because n·m reaches the threshold.
        num_sets = AUTO_NUMPY_THRESHOLD // 70 + 1
        system = SetSystem.from_masks(70, _sample_system(70, num_sets).masks(), backend="numpy")
        with env_overrides({KERNEL_ENV_VAR: None}):
            rebuilt = pickle.loads(pickle.dumps(system))
            kernel = rebuilt.kernel()
        assert kernel.backend == "numpy"
        assert kernel.set_sizes() == system.kernel().set_sizes()
        full = (1 << 70) - 1
        assert kernel.gains(full) == system.kernel().gains(full)

    @needs_numpy
    def test_packed_export_reuses_numpy_matrix(self):
        system = SetSystem.from_masks(40, [0b1011, 0b0100], backend="numpy")
        system.kernel()  # force the matrix to exist
        assert SetSystem.from_packed(system.to_packed()) == system
