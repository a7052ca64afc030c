"""Wire-protocol tests: framing, determinism, bounds, sync/async helpers."""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.client import AsyncServiceClient, ServiceClient, ServiceUnavailableError
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    STATUSES,
    FrameError,
    decode_frame,
    encode_frame,
    frame_length,
    make_response,
    read_message,
    recv_message,
    send_message,
)


class TestFraming:
    def test_round_trip(self):
        message = {"id": "r1", "kind": "maxcover", "params": {"k": 3}}
        frame = encode_frame(message)
        assert frame_length(frame[:4]) == len(frame) - 4
        assert decode_frame(frame[4:]) == message

    def test_encoding_is_deterministic(self):
        a = encode_frame({"b": 1, "a": {"y": 2, "x": 1}})
        b = encode_frame({"a": {"x": 1, "y": 2}, "b": 1})
        assert a == b

    def test_declared_oversize_rejected(self):
        prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="exceeds"):
            frame_length(prefix)

    def test_oversize_body_rejected_at_encode(self, monkeypatch):
        monkeypatch.setattr("repro.service.protocol.MAX_FRAME_BYTES", 16)
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame({"data": "x" * 64})

    def test_non_object_frame_rejected(self):
        with pytest.raises(FrameError, match="JSON object"):
            decode_frame(b"[1,2,3]")

    def test_undecodable_frame_rejected(self):
        with pytest.raises(FrameError, match="undecodable"):
            decode_frame(b"\xff\xfe not json")

    def test_deep_nesting_is_a_frame_error(self):
        with pytest.raises(FrameError, match="undecodable"):
            decode_frame(b"[" * 200_000 + b"]" * 200_000)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="this interpreter has no integer digit limit",
    )
    def test_integer_past_the_digit_limit_is_a_frame_error(self):
        with pytest.raises(FrameError, match="undecodable"):
            decode_frame(b'{"a":' + b"7" * 5000 + b"}")


class TestSyncHelpers:
    def test_socketpair_round_trip(self):
        left, right = socket.socketpair()
        try:
            send_message(left, {"id": "r9", "kind": "ping"})
            assert recv_message(right) == {"id": "r9", "kind": "ping"}
        finally:
            left.close()
            right.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_message(right) is None
        finally:
            right.close()

    def test_mid_frame_eof_raises(self):
        left, right = socket.socketpair()
        try:
            frame = encode_frame({"id": "r1", "kind": "cover"})
            left.sendall(frame[: len(frame) - 2])
            left.close()
            with pytest.raises(FrameError, match="mid-frame"):
                recv_message(right)
        finally:
            right.close()


class TestAsyncHelpers:
    def _reader_with(self, data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def test_read_message_round_trip(self):
        async def go():
            reader = self._reader_with(encode_frame({"id": "r1", "kind": "health"}))
            return await read_message(reader)

        assert asyncio.run(go()) == {"id": "r1", "kind": "health"}

    def test_clean_eof_returns_none(self):
        async def go():
            return await read_message(self._reader_with(b""))

        assert asyncio.run(go()) is None

    def test_truncated_frame_raises(self):
        async def go():
            frame = encode_frame({"id": "r1", "kind": "cover"})
            return await read_message(self._reader_with(frame[:-3]))

        with pytest.raises(FrameError, match="mid-frame"):
            asyncio.run(go())


#: Each client call, as ``(name, args)``: every one must map a lost answer.
_CLIENT_CALLS = [("request", ("cover",)), ("ping", ()), ("health", ())]


def _truncated_answer() -> bytes:
    """A response frame cut three bytes short: a server dying mid-response."""
    return encode_frame(make_response("c1", "ok", {"value": 1}))[:-3]


class TestClientsMapTruncatedFrames:
    @pytest.mark.parametrize("call, args", _CLIENT_CALLS)
    def test_blocking_client(self, call, args):
        server = socket.create_server(("127.0.0.1", 0))

        def answer_once():
            conn, _ = server.accept()
            with conn:
                recv_message(conn)
                conn.sendall(_truncated_answer())

        thread = threading.Thread(target=answer_once, daemon=True)
        thread.start()
        try:
            with ServiceClient("127.0.0.1", server.getsockname()[1], timeout=10) as client:
                with pytest.raises(ServiceUnavailableError, match="mid-frame"):
                    getattr(client, call)(*args)
        finally:
            thread.join(timeout=10)
            server.close()

    @pytest.mark.parametrize("call, args", _CLIENT_CALLS)
    def test_async_client(self, call, args):
        async def answer_once(reader, writer):
            await read_message(reader)
            writer.write(_truncated_answer())
            await writer.drain()
            writer.close()

        async def go():
            server = await asyncio.start_server(answer_once, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with AsyncServiceClient("127.0.0.1", port) as client:
                    await getattr(client, call)(*args)
            finally:
                server.close()
                await server.wait_closed()

        with pytest.raises(ServiceUnavailableError, match="mid-frame"):
            asyncio.run(go())


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

_BODIES = st.one_of(
    st.binary(max_size=48),
    _JSON.map(lambda value: json.dumps(value).encode("utf-8")),
    st.integers(1, 300_000).map(lambda depth: b"[" * depth + b"]" * depth),
    st.integers(1, 6000).map(lambda digits: b'{"a":' + b"9" * digits + b"}"),
)


class TestFrameFuzz:
    @settings(max_examples=200, deadline=None)
    @given(body=_BODIES)
    def test_decode_returns_an_object_or_raises_frame_error(self, body):
        try:
            message = decode_frame(body)
        except FrameError:
            return
        assert isinstance(message, dict)

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(_BODIES, st.one_of(st.none(), st.integers(0, MAX_FRAME_BYTES))),
            max_size=3,
        ),
        prefix=st.binary(max_size=6),
        cut=st.integers(0, 64),
    )
    def test_read_message_never_hangs_and_fails_typed(self, frames, prefix, cut):
        """Arbitrary prefixes, bodies, declared lengths and a truncated tail,
        then EOF: every read returns a dict or ``None`` or raises
        :class:`FrameError`."""
        data = prefix + b"".join(
            struct.pack(">I", len(body) if declared is None else declared) + body
            for body, declared in frames
        )
        data = data[: max(0, len(data) - cut)]

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            # Each successful read consumes at least the 4-byte prefix.
            for _ in range(len(data) // 4 + 1):
                try:
                    message = await asyncio.wait_for(read_message(reader), timeout=5)
                except FrameError:
                    return
                if message is None:
                    return
                assert isinstance(message, dict)
            assert await asyncio.wait_for(read_message(reader), timeout=5) is None

        asyncio.run(go())

    @settings(max_examples=50, deadline=None)
    @given(declared=st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1))
    def test_oversized_declared_length_raises_before_the_body(self, declared):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", declared))  # no body, no EOF
            with pytest.raises(FrameError, match="exceeds"):
                await asyncio.wait_for(read_message(reader), timeout=5)

        asyncio.run(go())


class TestResponses:
    def test_all_statuses_assemble(self):
        for status in STATUSES:
            response = make_response("r1", status, error="e")
            assert response["v"] == PROTOCOL_VERSION
            assert response["status"] == status

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="unknown response status"):
            make_response("r1", "wat")

    def test_extra_fields_pass_through(self):
        response = make_response("r1", "ok", result={"x": 1}, cached=True)
        assert response["cached"] is True and response["result"] == {"x": 1}
