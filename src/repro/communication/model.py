"""Core abstractions of the two-party communication model.

A :class:`TwoPartyProtocol` is driven by :func:`run_protocol`: the players
alternate (or follow any round structure the protocol chooses) by returning
:class:`Message` objects until one of them produces the output.  The
transcript records every message and its length in bits, which is what the
communication-cost accounting and the streaming-to-communication reductions
(Theorem 1's final step) consume.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ProtocolError
from repro.utils.bitset import bitset_size, iter_bits


@dataclass(frozen=True)
class ElementSet:
    """A set of universe elements carried in a message as its bitset mask.

    Priced and rendered exactly like the ascending list of its elements
    (:func:`payload_bits`, :meth:`Transcript.as_symbol`), so a protocol can
    ship a mask without decoding it and the receiver reads the mask back.
    """

    mask: int


def payload_bits(payload: Any) -> int:
    """Number of bits needed to encode a message payload.

    The encoding rules are deliberately simple and consistent so costs are
    comparable across protocols:

    * ``bool`` — 1 bit;
    * ``int`` — its binary length (at least 1);
    * ``str`` — 8 bits per character;
    * set/frozenset/list/tuple of ints — sum of element costs plus a length
      word;
    * :class:`ElementSet` — the price of its ascending element list;
    * anything else — 64 bits per item as a conservative default.
    """
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length())
    if isinstance(payload, str):
        return 8 * len(payload)
    if isinstance(payload, ElementSet):
        return _element_set_bits(payload.mask)
    if isinstance(payload, (set, frozenset, list, tuple)):
        return _length_word(len(payload)) + sum(payload_bits(item) for item in payload)
    if payload is None:
        return 1
    return 64


def _length_word(count: int) -> int:
    """Bits of the length word that precedes a collection of ``count`` items."""
    return max(1, math.ceil(math.log2(count + 2)))


def _element_set_bits(mask: int) -> int:
    """The list price of the elements of ``mask``, counted per bit-length band.

    Every element of ``[2^(j-1), 2^j)`` costs j bits and element 0 costs 1,
    so the price is the length word plus Σⱼ j·popcount(mask ∩ [2^(j-1), 2^j))
    plus 1 when element 0 is present: one shift and popcount per band
    instead of one :func:`payload_bits` call per element.
    """
    bits = _length_word(bitset_size(mask)) + (mask & 1)
    length = mask.bit_length()
    low = 1
    while low < length:
        band = (mask >> low) & ((1 << low) - 1)
        bits += low.bit_length() * bitset_size(band)
        low <<= 1
    return bits


@dataclass
class Message:
    """One message exchanged during a protocol run."""

    sender: str  # "alice" or "bob"
    payload: Any
    bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sender not in ("alice", "bob"):
            raise ProtocolError(f"unknown sender {self.sender!r}")
        if self.bits is None:
            self.bits = payload_bits(self.payload)
        if self.bits < 0:
            raise ProtocolError(f"message bit-length must be non-negative, got {self.bits}")


@dataclass
class Transcript:
    """The full record of a protocol run."""

    messages: List[Message] = field(default_factory=list)
    output: Any = None
    public_randomness: Any = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_bits(self) -> int:
        """Total communication cost of the run in bits."""
        return sum(message.bits or 0 for message in self.messages)

    @property
    def rounds(self) -> int:
        """Number of messages exchanged."""
        return len(self.messages)

    def as_symbol(self) -> Tuple:
        """A hashable rendering of the transcript (for information-cost joints)."""
        return tuple((m.sender, _freeze(m.payload)) for m in self.messages) + (
            ("output", _freeze(self.output)),
        )


def _freeze(value: Any) -> Any:
    if isinstance(value, ElementSet):
        return tuple(iter_bits(value.mask))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, tuple):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


class Protocol(abc.ABC):
    """Base class for anything that can be run to produce a transcript."""

    #: Human-readable protocol name used in experiment tables.
    name: str = "protocol"

    @abc.abstractmethod
    def execute(self, alice_input: Any, bob_input: Any) -> Transcript:
        """Run the protocol on the given inputs and return the transcript."""


class TwoPartyProtocol(Protocol):
    """A protocol expressed as explicit Alice/Bob steps.

    Subclasses implement :meth:`alice_round` and :meth:`bob_round`; each is
    called with the player's private input, the list of messages received so
    far, and a per-run scratch state dict.  Returning ``(payload, None)``
    sends a message; returning ``(payload, output)`` sends the final message
    and declares the output.  :func:`run_protocol` alternates starting with
    Alice until an output is declared or ``max_rounds`` is hit.
    """

    max_rounds: int = 64

    def setup(self, alice_input: Any, bob_input: Any) -> Dict[str, Any]:
        """Hook for public randomness / shared precomputation (default: none)."""
        return {}

    @abc.abstractmethod
    def alice_round(
        self,
        alice_input: Any,
        received: List[Message],
        state: Dict[str, Any],
    ) -> Tuple[Any, Optional[Any]]:
        """Alice's next message (payload, output-or-None)."""

    @abc.abstractmethod
    def bob_round(
        self,
        bob_input: Any,
        received: List[Message],
        state: Dict[str, Any],
    ) -> Tuple[Any, Optional[Any]]:
        """Bob's next message (payload, output-or-None)."""

    def execute(self, alice_input: Any, bob_input: Any) -> Transcript:
        return run_protocol(self, alice_input, bob_input)


def run_protocol(
    protocol: TwoPartyProtocol, alice_input: Any, bob_input: Any
) -> Transcript:
    """Drive a :class:`TwoPartyProtocol` until it declares an output."""
    transcript = Transcript()
    state = protocol.setup(alice_input, bob_input)
    transcript.public_randomness = state.get("public_randomness")
    for round_index in range(protocol.max_rounds):
        if round_index % 2 == 0:
            payload, output = protocol.alice_round(alice_input, transcript.messages, state)
            sender = "alice"
        else:
            payload, output = protocol.bob_round(bob_input, transcript.messages, state)
            sender = "bob"
        transcript.messages.append(Message(sender=sender, payload=payload))
        if output is not None:
            transcript.output = output
            return transcript
    raise ProtocolError(
        f"protocol {protocol.name!r} did not terminate within {protocol.max_rounds} rounds"
    )
