"""The solver service front end: admission, micro-batching, graceful drain.

``repro serve`` runs a long-lived asyncio server that holds hot instances
published once into shared memory (:class:`~repro.setcover.source.
SharedMemorySource`) and answers solver requests over the length-prefixed
JSON protocol of :mod:`repro.service.protocol`.  The design is a chain of
explicit bounded stages, each with a typed overflow behaviour — the point is
that *nothing* in this file can grow or wait without limit:

1. **Admission.** Every request either enters the bounded queue or is
   answered ``shed`` immediately (:class:`asyncio.Queue` ``put_nowait``).  A
   full queue is load the service explicitly refuses, never latency it
   silently accrues.  Cache hits bypass admission entirely.
2. **Work-conserving dispatch.** A single batcher task takes the head
   request and dispatches it to the :class:`~repro.service.pool.WorkerPool`
   as soon as one of the ``max(1, workers)`` slots is free; it waits only
   while every slot is busy.  Whatever queued during that wait (up to
   ``batch_size`` requests) rides along in the same micro-batch, so a batch
   forms only under load and an idle service never holds a request back.
   Dispatch drops the expired (answered ``deadline`` without compute) and
   dedupes by request fingerprint (one compute answers every duplicate).
3. **Deadlines.** A request's budget is armed at admission and travels into
   the workers as remaining seconds, where the engine's pass grants enforce
   it cooperatively; an answer that misses its deadline in the queue costs
   nothing downstream.
4. **Drain.** On SIGTERM the listener closes, queued-but-unstarted requests
   are answered ``draining``, in-flight batches get ``drain_grace_s`` to
   finish (then the pool is abandoned), and the shared segments unlink
   deterministically — same sequence every time, observable in the trace.
"""

from __future__ import annotations

import asyncio
import math
import signal
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.service.cache import ResponseCache
from repro.service.deadline import Deadline, clock
from repro.service.instances import DEFAULT_INSTANCE_SPEC, build_instance, instance_digest
from repro.service.pool import RequestItem, WorkerPool
from repro.service.protocol import (
    PROBE_KINDS,
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    FrameError,
    make_response,
    read_message,
    write_message,
)
from repro.service.requests import BadRequestError, canonical_params, request_fingerprint
from repro.setcover.source import SharedMemorySource
from repro.telemetry import metrics
from repro.telemetry.session import TelemetrySession, active_session
from repro.telemetry.spans import event, span

#: Queue sentinel telling the batcher to flush and exit.
_STOP = object()


def _positive_seconds(value: Any) -> bool:
    """Whether ``value`` is a usable deadline budget (a bool is not)."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and value > 0


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service process (all bounds are per this config)."""

    host: str = "127.0.0.1"
    port: int = 0
    instances: Tuple[str, ...] = (DEFAULT_INSTANCE_SPEC,)
    workers: int = 2
    queue_limit: int = 64
    batch_size: int = 8
    cache_capacity: int = 1024
    default_deadline_s: Optional[float] = None
    drain_grace_s: float = 5.0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.cache_capacity < 0:
            raise ValueError(f"cache_capacity must be >= 0, got {self.cache_capacity}")
        if self.default_deadline_s is not None and not _positive_seconds(self.default_deadline_s):
            raise ValueError(
                "default_deadline_s must be None or a positive number of seconds, "
                f"got {self.default_deadline_s!r}"
            )
        if not 0 <= self.drain_grace_s < math.inf:
            raise ValueError(
                f"drain_grace_s must be finite and >= 0, got {self.drain_grace_s}"
            )
        if not self.instances:
            raise ValueError("at least one instance spec is required")


@dataclass
class _Pending:
    """One admitted request waiting for its batch to compute."""

    request_id: str
    instance: str
    kind: str
    params: Dict[str, Any]
    fingerprint: str
    deadline: Optional[Deadline]
    future: "asyncio.Future[Dict[str, Any]]" = field(repr=False, default=None)  # type: ignore[assignment]
    admitted: float = field(default_factory=clock)


class SolverService:
    """The serving state machine; one instance per ``repro serve`` process."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self._systems = {}
        self._publications = {}
        self._digests = {}
        for spec in self.config.instances:
            name, system = build_instance(spec)
            if name in self._systems:
                raise ValueError(f"duplicate instance name {name!r}")
            self._systems[name] = system
            self._digests[name] = instance_digest(system)
        self.cache = ResponseCache(self.config.cache_capacity)
        self.draining = False
        self.address: Optional[Tuple[str, int]] = None
        self.counters: Dict[str, int] = {
            "requests": 0,
            "ok": 0,
            "cached": 0,
            "shed": 0,
            "deadline": 0,
            "draining": 0,
            "bad_request": 0,
            "error": 0,
        }
        self._seq = 0
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._dispatches: Set[asyncio.Task] = set()
        self._connections: Set[asyncio.Task] = set()
        self._drained = False
        self.pool: Optional[WorkerPool] = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Publish instances, spawn the pool, bind the listener.

        A failure at any step (a port already taken, say) closes what was
        published and stops the batcher before the error propagates, so a
        service that never started leaks no shared segment.
        """
        try:
            for name, system in self._systems.items():
                self._publications[name] = SharedMemorySource.publish(system.to_packed())
            self.pool = WorkerPool(
                {name: pub.descriptor() for name, pub in self._publications.items()},
                self._systems,
                workers=self.config.workers,
            )
            self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
            self._batcher_task = asyncio.create_task(self._batcher())
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=self.config.port
            )
        except BaseException:
            if self._batcher_task is not None:
                self._batcher_task.cancel()
                await asyncio.gather(self._batcher_task, return_exceptions=True)
            for publication in self._publications.values():
                publication.close()
            self._publications.clear()
            raise
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        event("service.start", host=self.address[0], port=self.address[1])
        return self.address

    async def drain(self) -> None:
        """The SIGTERM sequence: refuse, flush, finish-or-abandon, unlink.

        Idempotent; every stage is bounded, so drain always terminates:
        the listener closes first (no new connections), queued requests are
        answered ``draining``, in-flight batches get ``drain_grace_s`` of
        real time before their workers are terminated, and the shared
        segments are unlinked last (workers attach only at initialisation,
        so no attach can race the unlink).
        """
        if self._drained:
            return
        self._drained = True
        self.draining = True
        event("service.drain_begin", queued=self._queue.qsize() if self._queue else 0)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._queue is not None:
            await self._queue.put(_STOP)
        if self._batcher_task is not None:
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._batcher_task),
                    timeout=self.config.drain_grace_s,
                )
            except asyncio.TimeoutError:
                # A batch is stuck past the grace period: kill its workers
                # (the dispatch threads see their pipes close and run again)
                # and stop waiting politely.
                metrics.add("service.drain_forced")
                if self.pool is not None:
                    self.pool.abandon()
                self._batcher_task.cancel()
                try:
                    await self._batcher_task
                except (asyncio.CancelledError, Exception):
                    pass
            self._flush_draining()
        if self._dispatches:
            done, hung = await asyncio.wait(
                self._dispatches, timeout=self.config.drain_grace_s
            )
            if hung:
                metrics.add("service.drain_abandoned_batches", len(hung))
                if self.pool is not None:
                    self.pool.abandon()
                for task in hung:
                    task.cancel()
                await asyncio.gather(*hung, return_exceptions=True)
        if self.pool is not None:
            self.pool.shutdown()
        # Every admitted request is answered by now; connections still open
        # are just idle readers — close them so the loop can wind down clean.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        for publication in self._publications.values():
            publication.close()
        self._publications.clear()
        event("service.drain_complete", served=self.counters["requests"])

    # -- connections -------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    message = await read_message(reader)
                except FrameError as exc:
                    await write_message(
                        writer, make_response("", "bad_request", error=str(exc))
                    )
                    break
                if message is None:
                    break
                response = await self._process_message(message)
                await write_message(writer, response)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # drain teardown: exit quietly, every future is resolved
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _process_message(self, message: Any) -> Dict[str, Any]:
        if not isinstance(message, dict):
            return make_response("", "bad_request", error="message must be an object")
        self._seq += 1
        request_id = str(message.get("id") or f"r{self._seq}")
        kind = message.get("kind")
        if kind in PROBE_KINDS:
            return self._probe(request_id, kind)
        if kind not in REQUEST_KINDS:
            self.counters["bad_request"] += 1
            return make_response(
                request_id,
                "bad_request",
                error=f"unknown kind {kind!r}; expected one of {REQUEST_KINDS + PROBE_KINDS}",
            )
        started = clock()
        with span("service.request", kind=kind, request_id=request_id) as active:
            response = await self._handle_request(request_id, kind, message)
            active.set(status=response["status"])
        metrics.observe(f"service.latency_ms.{kind}", (clock() - started) * 1000.0)
        self.counters["requests"] += 1
        self.counters[response["status"]] = self.counters.get(response["status"], 0) + 1
        metrics.add(f"service.responses.{response['status']}")
        return response

    def _probe(self, request_id: str, kind: str) -> Dict[str, Any]:
        status = "draining" if self.draining else "ok"
        if kind == "ping":
            return make_response(request_id, status, result={"pong": True})
        payload = {
            "protocol": PROTOCOL_VERSION,
            "draining": self.draining,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "queue_limit": self.config.queue_limit,
            "instances": dict(self._digests),
            "cache": self.cache.stats(),
            "pool": {
                "workers": self.config.workers,
                "degraded": bool(self.pool and self.pool.degraded),
                "respawns": self.pool.respawns if self.pool else 0,
            },
            "served": dict(self.counters),
        }
        return make_response(request_id, status, result=payload)

    async def _handle_request(
        self, request_id: str, kind: str, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        instance = message.get("instance", next(iter(self._systems)))
        if instance not in self._systems:
            return make_response(
                request_id,
                "bad_request",
                error=f"unknown instance {instance!r}; serving {sorted(self._systems)}",
            )
        try:
            params = canonical_params(kind, message.get("params", {}))
            budget = self._budget(message)
        except BadRequestError as exc:
            return make_response(request_id, "bad_request", error=str(exc))
        fingerprint = request_fingerprint(self._digests[instance], kind, params)
        cached = self.cache.get(fingerprint)
        if cached is not None:
            self.counters["cached"] += 1
            return make_response(request_id, "ok", result=cached, cached=True)
        if self.draining:
            return make_response(
                request_id, "draining", error="service is draining; retry elsewhere"
            )
        deadline = Deadline.after(budget) if budget is not None else None
        pending = _Pending(
            request_id=request_id,
            instance=instance,
            kind=kind,
            params=params,
            fingerprint=fingerprint,
            deadline=deadline,
            future=asyncio.get_running_loop().create_future(),
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            metrics.add("service.shed")
            return make_response(
                request_id,
                "shed",
                error=f"admission queue full ({self.config.queue_limit}); load shed",
            )
        return await pending.future

    def _budget(self, message: Dict[str, Any]) -> Optional[float]:
        raw = message.get("deadline_s", self.config.default_deadline_s)
        if raw is None:
            return None
        if not _positive_seconds(raw):
            raise BadRequestError(
                f"deadline_s must be a positive number of seconds, got {raw!r}"
            )
        return float(raw)

    # -- batching ----------------------------------------------------------
    async def _batcher(self) -> None:
        """Dispatch on a free slot, batching only what queued while all were busy."""
        limit = max(1, self.config.workers)
        while True:
            entry = await self._queue.get()
            if entry is _STOP:
                self._flush_draining()
                return
            while len(self._dispatches) >= limit:
                await asyncio.wait(self._dispatches, return_when=asyncio.FIRST_COMPLETED)
            batch: List[_Pending] = [entry]
            stopping = False
            while len(batch) < self.config.batch_size and not self._queue.empty():
                extra = self._queue.get_nowait()
                if extra is _STOP:
                    stopping = True
                    break
                batch.append(extra)
            task = asyncio.create_task(self._dispatch(batch))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)
            if stopping:
                self._flush_draining()
                return

    def _flush_draining(self) -> None:
        """Answer every queued-but-unstarted request with ``draining``."""
        while True:
            try:
                entry = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if entry is _STOP:
                continue
            metrics.add("service.drain_rejections")
            self._finish(
                entry,
                make_response(
                    entry.request_id,
                    "draining",
                    error="service drained before this request started",
                ),
            )

    async def _dispatch(self, batch: List[_Pending]) -> None:
        """Execute one micro-batch: expire, dedupe, compute, fan back out."""
        now = clock()
        groups: Dict[str, List[_Pending]] = {}
        for entry in batch:
            metrics.observe("service.queue_wait_ms", (now - entry.admitted) * 1000.0)
            if entry.deadline is not None and entry.deadline.expired:
                metrics.add("service.deadline_misses")
                self._finish(
                    entry,
                    make_response(
                        entry.request_id,
                        "deadline",
                        error="deadline expired before compute started",
                    ),
                )
                continue
            groups.setdefault(entry.fingerprint, []).append(entry)
        if not groups:
            return
        items: List[RequestItem] = []
        for fingerprint, entries in groups.items():
            head = entries[0]
            # Duplicates share one compute; give it the most generous
            # surviving budget so no duplicate is starved by another's clock.
            budgets = [e.deadline.remaining() for e in entries if e.deadline is not None]
            budget = None if len(budgets) < len(entries) else max(budgets)
            items.append(
                (head.request_id, head.instance, head.kind, head.params, budget, 0)
            )
        metrics.add("service.batches")
        metrics.observe("service.batch_size", len(items))
        loop = asyncio.get_running_loop()
        session = active_session()
        try:
            if session is None:
                outcomes = await loop.run_in_executor(None, self.pool.run_batch, items)
            else:
                outcomes, snapshot = await loop.run_in_executor(
                    None, _run_captured, self.pool.run_batch, items
                )
                session.absorb(snapshot)
            for (fingerprint, entries), outcome in zip(groups.items(), outcomes):
                status = outcome["status"]
                if status == "ok":
                    self.cache.put(fingerprint, outcome["result"])
                for entry in entries:
                    if status == "ok":
                        response = make_response(
                            entry.request_id, "ok", result=outcome["result"], cached=False
                        )
                    else:
                        response = make_response(
                            entry.request_id, status, error=outcome.get("error")
                        )
                    self._finish(entry, response)
        finally:
            # Totality: whatever happened above — a cancelled drain, an
            # unexpected executor error — no admitted request is left
            # dangling on an unresolved future.
            for entries in groups.values():
                for entry in entries:
                    self._finish(
                        entry,
                        make_response(
                            entry.request_id,
                            "error",
                            error="request abandoned (batch failed or drain timed out)",
                        ),
                    )

    @staticmethod
    def _finish(entry: _Pending, response: Dict[str, Any]) -> None:
        if not entry.future.done():
            entry.future.set_result(response)


def _run_captured(
    run_batch: Callable[[List[RequestItem]], List[Dict[str, Any]]],
    items: List[RequestItem],
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Run ``run_batch`` under a session of this dispatch thread's own.

    ``run_in_executor`` does not carry the loop's context, and the loop's
    registry has no lock, so the pool's telemetry comes back as a snapshot
    for the loop to absorb.
    """
    with TelemetrySession(label="service-dispatch") as session:
        outcomes = run_batch(items)
    return outcomes, session.snapshot()


async def serve_main(
    config: Optional[ServiceConfig] = None,
    ready: Optional[threading.Event] = None,
    stop: Optional[asyncio.Event] = None,
) -> Dict[str, int]:
    """Run a service until SIGTERM/SIGINT, then drain; returns the counters.

    Prints ``listening on HOST:PORT`` once bound (clients started with
    ``port=0`` discover the real port from this line), installs the drain
    signal handlers, and blocks until a signal (or the injectable ``stop``
    event) fires.
    """
    service = SolverService(config)
    host, port = await service.start()
    print(f"listening on {host}:{port}", flush=True)
    if ready is not None:
        ready.set()
    stop_event = stop or asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop_event.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
            pass
    try:
        await stop_event.wait()
        await service.drain()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
    return dict(service.counters)


__all__ = [
    "ServiceConfig",
    "SolverService",
    "serve_main",
]
