"""Unit tests for SetStream and stream orders."""

import pytest

from repro.streaming.stream import SetStream, StreamOrder


class TestAdversarialOrder:
    def test_items_in_native_order(self, tiny_system):
        stream = SetStream(tiny_system)
        items = list(stream.iterate_pass())
        assert [index for index, _ in items] == list(range(6))
        assert items[0][1] == tiny_system.mask(0)

    def test_pass_counter(self, tiny_system):
        stream = SetStream(tiny_system)
        assert stream.passes_consumed == 0
        list(stream.iterate_pass())
        list(stream.iterate_pass())
        assert stream.passes_consumed == 2

    def test_partial_pass_still_counts(self, tiny_system):
        stream = SetStream(tiny_system)
        iterator = stream.iterate_pass()
        next(iterator)
        assert stream.passes_consumed == 1

    def test_reset(self, tiny_system):
        stream = SetStream(tiny_system)
        list(stream.iterate_pass())
        stream.reset()
        assert stream.passes_consumed == 0


class TestRandomOrder:
    def test_is_permutation(self, tiny_system):
        stream = SetStream(tiny_system, order=StreamOrder.RANDOM, seed=1)
        indices = [index for index, _ in stream.iterate_pass()]
        assert sorted(indices) == list(range(6))

    def test_order_fixed_across_passes(self, tiny_system):
        stream = SetStream(tiny_system, order=StreamOrder.RANDOM, seed=5)
        first = [index for index, _ in stream.iterate_pass()]
        second = [index for index, _ in stream.iterate_pass()]
        assert first == second

    def test_seed_determinism(self, tiny_system):
        a = SetStream(tiny_system, order=StreamOrder.RANDOM, seed=9)
        b = SetStream(tiny_system, order=StreamOrder.RANDOM, seed=9)
        assert a.arrival_order == b.arrival_order


class TestCustomOrder:
    def test_explicit_permutation(self, tiny_system):
        order = [5, 4, 3, 2, 1, 0]
        stream = SetStream(tiny_system, order=StreamOrder.CUSTOM, permutation=order)
        assert [i for i, _ in stream.iterate_pass()] == order

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
