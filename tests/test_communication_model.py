"""Unit tests for the two-party communication model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communication.cost import (
    average_communication,
    evaluate_protocol,
    transcript_bits,
    worst_case_communication,
)
from repro.communication.model import (
    ElementSet,
    Message,
    Transcript,
    TwoPartyProtocol,
    payload_bits,
    run_protocol,
)
from repro.exceptions import ProtocolError
from repro.utils.bitset import bitset_from_iterable


class EchoProtocol(TwoPartyProtocol):
    """Alice sends her input; Bob replies with the pair."""

    name = "echo"

    def alice_round(self, alice_input, received, state):
        return alice_input, None

    def bob_round(self, bob_input, received, state):
        answer = (received[0].payload, bob_input)
        return answer, answer


class SilentProtocol(TwoPartyProtocol):
    """Never terminates (for testing the round cap)."""

    name = "silent"
    max_rounds = 4

    def alice_round(self, alice_input, received, state):
        return 1, None

    def bob_round(self, bob_input, received, state):
        return 1, None


class TestPayloadBits:
    def test_bool(self):
        assert payload_bits(True) == 1

    def test_int(self):
        assert payload_bits(0) == 1
        assert payload_bits(255) == 8

    def test_string(self):
        assert payload_bits("abc") == 24

    def test_collection(self):
        assert payload_bits([1, 2, 3]) >= 3

    def test_none(self):
        assert payload_bits(None) == 1

    def test_unknown_type_conservative(self):
        class Widget:
            pass

        assert payload_bits(Widget()) == 64


class TestMessageAndTranscript:
    def test_message_bits_auto(self):
        message = Message(sender="alice", payload=15)
        assert message.bits == 4

    def test_message_bits_override(self):
        message = Message(sender="bob", payload=[1, 2, 3], bits=100)
        assert message.bits == 100

    def test_invalid_sender(self):
        with pytest.raises(ProtocolError):
            Message(sender="carol", payload=1)

    def test_transcript_totals(self):
        transcript = Transcript(
            messages=[
                Message(sender="alice", payload=7),
                Message(sender="bob", payload=1),
            ]
        )
        assert transcript.total_bits == 3 + 1
        assert transcript.rounds == 2

    def test_as_symbol_hashable(self):
        transcript = Transcript(
            messages=[Message(sender="alice", payload=frozenset({1, 2}))],
            output="Yes",
        )
        hash(transcript.as_symbol())


class TestElementSet:
    """An ``ElementSet`` is priced and rendered as its ascending element list."""

    EDGE_SETS = (
        set(),
        {0},
        {1},
        {0, 1},
        {2, 3},
        {3, 4},
        {7, 8, 255, 256},
        set(range(600)),
        set(range(1, 4097, 7)),
        {4095, 4096},
        {1 << 20},
    )

    def test_edge_cases_priced_like_the_sorted_list(self):
        for elements in self.EDGE_SETS:
            mask = bitset_from_iterable(elements)
            assert payload_bits(ElementSet(mask)) == payload_bits(sorted(elements)), elements

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=4096), max_size=400))
    def test_price_equals_the_sorted_list_price(self, elements):
        mask = bitset_from_iterable(elements)
        assert payload_bits(ElementSet(mask)) == payload_bits(sorted(elements))
        nested = [(5, ElementSet(mask)), (9, ElementSet(mask & 0xFF))]
        assert payload_bits(nested) == payload_bits(
            [(5, sorted(elements)), (9, sorted(e for e in elements if e < 8))]
        )

    def test_rendered_like_the_sorted_list(self):
        for elements in self.EDGE_SETS:
            mask = bitset_from_iterable(elements)
            as_mask = Transcript(
                messages=[
                    Message(sender="alice", payload=[(3, ElementSet(mask))]),
                    Message(sender="bob", payload={"uncovered": ElementSet(mask)}, bits=7),
                ],
                output=1,
            )
            as_list = Transcript(
                messages=[
                    Message(sender="alice", payload=[(3, sorted(elements))]),
                    Message(sender="bob", payload={"uncovered": sorted(elements)}, bits=7),
                ],
                output=1,
            )
            assert as_mask.as_symbol() == as_list.as_symbol()
            assert [m.bits for m in as_mask.messages] == [m.bits for m in as_list.messages]


class TestRunProtocol:
    def test_echo_round_trip(self):
        transcript = run_protocol(EchoProtocol(), "hello", "world")
        assert transcript.output == ("hello", "world")
        assert transcript.rounds == 2

    def test_round_cap_raises(self):
        with pytest.raises(ProtocolError):
            run_protocol(SilentProtocol(), 1, 2)

    def test_execute_equivalent(self):
        assert EchoProtocol().execute("a", "b").output == ("a", "b")


class TestCostHelpers:
    def _transcripts(self):
        return [
            Transcript(messages=[Message(sender="alice", payload=2 ** 10)]),
            Transcript(messages=[Message(sender="alice", payload=1)]),
        ]

    def test_transcript_bits(self):
        assert transcript_bits(self._transcripts()[0]) == 11

    def test_worst_case(self):
        assert worst_case_communication(self._transcripts()) == 11

    def test_average(self):
        assert average_communication(self._transcripts()) == pytest.approx(6.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            worst_case_communication([])
        with pytest.raises(ValueError):
            average_communication([])

    def test_evaluate_protocol(self):
        instances = [("x", "y"), ("a", "b")]
        error, worst, mean = evaluate_protocol(
            EchoProtocol(), instances, correct=lambda pair, output: output == pair
        )
        assert error == 0.0
        assert worst >= mean > 0
