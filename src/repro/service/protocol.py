"""The length-prefixed JSON wire protocol of the solver service.

A message is one JSON object encoded UTF-8, prefixed by a 4-byte big-endian
unsigned length.  Both directions use the same framing; a frame longer than
:data:`MAX_FRAME_BYTES` is a protocol violation and closes the connection
(bounded memory per connection is part of the admission-control story — a
client cannot make the server buffer an arbitrarily large request).

Requests carry::

    {"v": 1, "id": "r1", "kind": "cover", "instance": "hot",
     "params": {...}, "deadline_s": 0.25}

Responses echo ``id`` and report a ``status`` from :data:`STATUSES`:

==============  ==========================================================
``ok``          ``result`` holds the solver payload (byte-identical to a
                direct solver call for the same fingerprint)
``shed``        admission control rejected the request (queue full) —
                explicit load shedding, never an unbounded queue
``deadline``    the request's deadline expired before or during compute
``draining``    the service is shutting down and no longer accepts work
``bad_request`` the request failed validation; ``error`` explains
``error``       the request failed after exhausting retries; ``error``
                explains (transient worker failures are retried first)
==============  ==========================================================

The module is deliberately transport-agnostic and import-light: pure
``bytes`` codecs plus thin asyncio stream helpers, so the client, the
server, and the load generator all share one framing implementation.

Example — a message round-trips through the frame codec::

    >>> frame = encode_frame({"id": "r1", "kind": "cover"})
    >>> decode_frame(frame[4:])
    {'id': 'r1', 'kind': 'cover'}
    >>> int.from_bytes(frame[:4], "big") == len(frame) - 4
    True
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Optional

#: Protocol version stamped on requests; bumped on incompatible changes.
PROTOCOL_VERSION = 1

#: Hard per-frame byte bound, both directions (16 MiB).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Every status a response may carry.
STATUSES = ("ok", "shed", "deadline", "draining", "bad_request", "error")

#: The request kinds the service computes (probes are answered inline).
REQUEST_KINDS = ("cover", "maxcover", "estimate")

#: Inline probe kinds: answered by the front end without touching the pool.
PROBE_KINDS = ("ping", "health")

_LENGTH = struct.Struct(">I")


class FrameError(ValueError):
    """A malformed or oversized frame; the connection must be closed."""


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Encode one message as ``length || utf-8 json`` bytes.

    Serialisation is deterministic (sorted keys, no whitespace) so identical
    payloads are identical bytes — the property the response-parity tests
    and the cache assert.
    """
    body = json.dumps(
        message, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(body)) + body


def decode_frame(body: bytes) -> Dict[str, Any]:
    """Decode a frame body (the bytes after the length prefix).

    Every way the bytes can fail is a :class:`FrameError`: bad UTF-8 or
    JSON, an integer past CPython's digit limit (a ``ValueError``), and
    nesting too deep for the parser (a ``RecursionError``).
    """
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FrameError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise FrameError("frame must decode to a JSON object")
    return message


def frame_length(prefix: bytes) -> int:
    """Parse and bound-check the 4-byte length prefix."""
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"declared frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return length


# -- asyncio helpers (server, client and load generator) -------------------


async def read_message(reader) -> Optional[Dict[str, Any]]:
    """Read one framed message from an :class:`asyncio.StreamReader`.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`FrameError` on truncation or an oversized declared length.
    """
    import asyncio

    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("connection closed mid-length-prefix") from exc
    length = frame_length(prefix)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc
    return decode_frame(body)


async def write_message(writer, message: Dict[str, Any]) -> None:
    """Write one framed message to an :class:`asyncio.StreamWriter`."""
    writer.write(encode_frame(message))
    await writer.drain()


def make_response(
    request_id: Any,
    status: str,
    result: Optional[Dict[str, Any]] = None,
    error: Optional[str] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """Assemble a response message (status must be one of :data:`STATUSES`)."""
    if status not in STATUSES:
        raise ValueError(f"unknown response status {status!r}")
    response: Dict[str, Any] = {"v": PROTOCOL_VERSION, "id": request_id, "status": status}
    if result is not None:
        response["result"] = result
    if error is not None:
        response["error"] = error
    response.update(extra)
    return response


__all__ = [
    "FrameError",
    "MAX_FRAME_BYTES",
    "PROBE_KINDS",
    "PROTOCOL_VERSION",
    "REQUEST_KINDS",
    "STATUSES",
    "decode_frame",
    "encode_frame",
    "frame_length",
    "make_response",
    "read_message",
    "write_message",
]
