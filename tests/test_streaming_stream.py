"""Unit tests for SetStream and stream orders."""

import pytest

from repro.streaming.stream import SetStream, StreamOrder


class TestAdversarialOrder:
    def test_items_in_native_order(self, tiny_system):
        stream = SetStream(tiny_system)
        assert stream.arrival_order == list(range(6))
        assert stream.batched_pass() is tiny_system

    def test_pass_counter(self, tiny_system):
        stream = SetStream(tiny_system)
        assert stream.passes_consumed == 0
        stream.batched_pass()
        stream.batched_pass()
        assert stream.passes_consumed == 2


class TestRandomOrder:
    def test_is_permutation(self, tiny_system):
        stream = SetStream(tiny_system, order=StreamOrder.RANDOM, seed=1)
        assert sorted(stream.arrival_order) == list(range(6))

    def test_order_fixed_across_passes(self, tiny_system):
        stream = SetStream(tiny_system, order=StreamOrder.RANDOM, seed=5)
        first = stream.arrival_order
        stream.batched_pass()
        assert stream.arrival_order == first

    def test_seed_determinism(self, tiny_system):
        a = SetStream(tiny_system, order=StreamOrder.RANDOM, seed=9)
        b = SetStream(tiny_system, order=StreamOrder.RANDOM, seed=9)
        assert a.arrival_order == b.arrival_order


class TestCustomOrder:
    def test_explicit_permutation(self, tiny_system):
        order = [5, 4, 3, 2, 1, 0]
        stream = SetStream(tiny_system, order=StreamOrder.CUSTOM, permutation=order)
        assert stream.arrival_order == order

    def test_missing_permutation_rejected(self, tiny_system):
        with pytest.raises(ValueError):
            SetStream(tiny_system, order=StreamOrder.CUSTOM)

    def test_invalid_permutation_rejected(self, tiny_system):
        with pytest.raises(ValueError):
            SetStream(
                tiny_system, order=StreamOrder.CUSTOM, permutation=[0, 0, 1, 2, 3, 4]
            )


class TestConvenience:
    def test_stream_from_system(self, tiny_system):
        stream = SetStream(tiny_system, order=StreamOrder.RANDOM, seed=2)
        assert stream.num_sets == 6
        assert stream.universe_size == 6
        assert stream.order is StreamOrder.RANDOM
