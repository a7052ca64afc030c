"""The solver service's client: one asyncio connection, requests in order.

:class:`AsyncServiceClient` speaks the framing in
:mod:`repro.service.protocol` and returns the raw response dict — status
handling is the caller's business (a ``shed`` or ``deadline`` is a *valid
answer* from a service under load, not an exception).  ``repro loadgen``
drives it by the thousand; a one-off probe wraps it in ``asyncio.run``.

Example — request construction is pure and deterministic::

    >>> req = build_request("r1", "maxcover", params={"k": 3}, deadline_s=0.5)
    >>> sorted(req)
    ['deadline_s', 'id', 'kind', 'params', 'v']
    >>> req["kind"], req["params"]
    ('maxcover', {'k': 3})
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro.service.protocol import (
    PROTOCOL_VERSION,
    FrameError,
    read_message,
    write_message,
)


class ServiceUnavailableError(ConnectionError):
    """The service closed the connection instead of answering."""


def build_request(
    request_id: str,
    kind: str,
    params: Optional[Dict[str, Any]] = None,
    instance: Optional[str] = None,
    deadline_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Assemble one request message (validation happens server-side)."""
    request: Dict[str, Any] = {"v": PROTOCOL_VERSION, "id": request_id, "kind": kind}
    if params is not None:
        request["params"] = params
    if instance is not None:
        request["instance"] = instance
    if deadline_s is not None:
        request["deadline_s"] = deadline_s
    return request


class AsyncServiceClient:
    """A client over one connection; requests run strictly in order."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._seq = 0

    async def connect(self) -> "AsyncServiceClient":
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def request(
        self,
        kind: str,
        params: Optional[Dict[str, Any]] = None,
        instance: Optional[str] = None,
        deadline_s: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Send one request and await its response on this connection.

        Every call of this client goes through here, so a server that dies
        mid-response raises :class:`ServiceUnavailableError` on each of them.
        """
        if self._writer is None or self._reader is None:
            raise ServiceUnavailableError("client is not connected")
        self._seq += 1
        rid = request_id or f"c{self._seq}"
        await write_message(
            self._writer,
            build_request(rid, kind, params=params, instance=instance, deadline_s=deadline_s),
        )
        try:
            response = await read_message(self._reader)
        except FrameError as exc:
            raise ServiceUnavailableError(str(exc)) from exc
        if response is None:
            raise ServiceUnavailableError(
                f"service at {self.host}:{self.port} closed the connection"
            )
        return response

    async def ping(self) -> Dict[str, Any]:
        """Liveness probe (answered inline even while draining)."""
        return await self.request("ping")

    async def health(self) -> Dict[str, Any]:
        """Readiness probe: queue depth, cache stats, pool state, counters."""
        return await self.request("health")


__all__ = [
    "AsyncServiceClient",
    "ServiceUnavailableError",
    "build_request",
]
