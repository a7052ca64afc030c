"""Unit tests for the exact information odometer (Lemma 3.6 machinery)."""

import pytest

from repro.infotheory.odometer import InformationOdometer, truncate_at_budget


def uniform_bits_inputs():
    return [(x, y, 0.25) for x in (0, 1) for y in (0, 1)]


class TestOdometerReadings:
    def test_readings_monotone(self):
        # Round 1: Alice sends her bit.  Round 2: Bob sends his bit.
        odometer = InformationOdometer(
            uniform_bits_inputs(), lambda x, y: [("alice", x), ("bob", y)]
        )
        readings = odometer.readings()
        totals = [r.total for r in readings]
        assert totals == sorted(totals)
        assert readings[0].total == pytest.approx(0.0)
        assert readings[-1].total == pytest.approx(2.0)

    def test_per_direction_accounting(self):
        odometer = InformationOdometer(
            uniform_bits_inputs(), lambda x, y: [("alice", x), ("bob", y)]
        )
        after_first = odometer.reading_after(1)
        assert after_first.revealed_to_bob == pytest.approx(1.0)
        assert after_first.revealed_to_alice == pytest.approx(0.0)

    def test_silent_protocol_reveals_nothing(self):
        odometer = InformationOdometer(
            uniform_bits_inputs(), lambda x, y: ["hello", "world"]
        )
        assert odometer.reading_after(odometer.max_rounds).total == pytest.approx(0.0)

    def test_correlated_inputs_reveal_less(self):
        # Bob already knows Alice's bit: sending it reveals nothing.
        inputs = [(0, 0, 0.5), (1, 1, 0.5)]
        odometer = InformationOdometer(inputs, lambda x, y: [("alice", x)])
        assert odometer.reading_after(odometer.max_rounds).total == pytest.approx(0.0)

    def test_max_rounds(self):
        odometer = InformationOdometer(
            uniform_bits_inputs(), lambda x, y: [x, y, x ^ y]
        )
        assert odometer.max_rounds == 3

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            InformationOdometer([], lambda x, y: [x])
        odometer = InformationOdometer(uniform_bits_inputs(), lambda x, y: [x])
        with pytest.raises(ValueError):
            odometer.reading_after(-1)


class TestTruncation:
    def test_budget_zero_allows_only_silent_prefix(self):
        odometer = InformationOdometer(
            uniform_bits_inputs(), lambda x, y: [("alice", x), ("bob", y)]
        )
        assert truncate_at_budget(odometer, 0.0) == 0

    def test_budget_one_allows_one_round(self):
        odometer = InformationOdometer(
            uniform_bits_inputs(), lambda x, y: [("alice", x), ("bob", y)]
        )
        assert truncate_at_budget(odometer, 1.0) == 1

    def test_large_budget_allows_everything(self):
        odometer = InformationOdometer(
            uniform_bits_inputs(), lambda x, y: [("alice", x), ("bob", y)]
        )
        assert truncate_at_budget(odometer, 10.0) == 2

    def test_negative_budget_rejected(self):
        odometer = InformationOdometer(uniform_bits_inputs(), lambda x, y: [x])
        with pytest.raises(ValueError):
            truncate_at_budget(odometer, -1.0)
