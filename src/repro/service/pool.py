"""The solver service's worker pool: shared-memory workers, hardened.

Request compute runs in a :class:`~concurrent.futures.ProcessPoolExecutor`
whose workers attach the published hot instances from shared memory **once**
at initialisation (:func:`_service_worker_init`) — after that, a request
ships only scalars across the process boundary, never an instance.

The robustness story reuses :mod:`repro.resilience` wholesale:

* Per-item transient failures (the ``service.request`` ``raise`` fault, a
  lost shared segment) come back as ``__transient__`` statuses and are
  retried item-by-item under the ambient :class:`RetryPolicy`.
* A dead worker (``service.request`` ``crash`` → ``os._exit``) breaks the
  pool; the pool is abandoned (terminate stragglers), respawned at most
  ``policy.max_pool_respawns`` times, and the in-flight batch re-executes.
* A :class:`CircuitBreaker` counts consecutive pool losses; once open — or
  once respawns are exhausted — the pool **degrades to inline execution** in
  the server process (``degrade.serial_execution``), trading latency for
  availability: the service keeps answering, it never hangs.

Deadlines cross the process boundary as *remaining budget seconds* (a
monotonic deadline from the parent's clock is meaningless in the worker) and
are re-armed worker-side via :func:`Deadline.after`, so an expired request
stops at the next pass grant inside the engine no matter which process runs
it.

Because every path funnels through :func:`execute_request_batch` →
:func:`~repro.service.requests.compute_response`, pool answers, degraded
inline answers, and direct solver calls are byte-identical — the service's
parity guarantee survives every failure mode.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import DeadlineExceededError, ReproError, TransientTaskError
from repro.resilience.degrade import record_degradation
from repro.resilience.faults import attempt_scope, inject, mark_worker_process
from repro.resilience.policy import CircuitBreaker, RetryPolicy, backoff_delay, policy_from_env
from repro.service.deadline import Deadline, deadline_scope
from repro.service.requests import compute_response
from repro.setcover.instance import SetSystem
from repro.setcover.source import SharedMemorySource, SourceDescriptor
from repro.telemetry import metrics
from repro.telemetry.spans import event

#: One work item: ``(request_id, instance, kind, params, budget_s, attempt)``.
#: ``params`` are already canonical; ``budget_s`` is the remaining deadline
#: budget in seconds (``None`` = no deadline); ``attempt`` feeds fault
#: decisions and retry accounting.
RequestItem = Tuple[str, str, str, Dict[str, Any], Optional[float], int]

#: Instances attached from shared memory, populated by the pool initializer.
_WORKER_SYSTEMS: Dict[str, SetSystem] = {}


def _service_worker_init(descriptors: Dict[str, SourceDescriptor]) -> None:
    """Pool initializer: mark the worker disposable, load hot instances.

    Each instance is attached from its shared segment, copied into a
    resident :class:`SetSystem` and detached again, so the worker keeps the
    resident kernel and never pins the publisher's memory.

    A forked worker inherits the parent's signal state — including the
    asyncio event loop's *signal wakeup fd*, whose pipe the child's fd table
    still shares with the server.  Left in place, a ``terminate()`` aimed at
    this worker would make the child's C-level handler write SIGTERM into
    that shared pipe and the *server* would begin draining as if it had been
    signalled itself.  Detach the wakeup fd and restore default dispositions
    before anything else.
    """
    import signal as _signal

    try:
        _signal.set_wakeup_fd(-1)
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main-thread/platform
        pass
    mark_worker_process()
    _WORKER_SYSTEMS.clear()
    for name, descriptor in descriptors.items():
        source = SharedMemorySource.attach(descriptor)
        try:
            _WORKER_SYSTEMS[name] = SetSystem.from_packed(source.to_packed())
        finally:
            source.close()


def _execute_one(
    systems: Dict[str, SetSystem],
    request_id: str,
    instance: str,
    kind: str,
    params: Dict[str, Any],
    budget_s: Optional[float],
    attempt: int,
) -> Dict[str, Any]:
    """Evaluate one item into a status dict; never raises.

    Statuses: ``ok`` (with ``result``), ``deadline`` (budget expired
    mid-compute), ``__transient__`` (retryable — the caller's retry loop
    consumes this marker, a client never sees it), ``error`` (deterministic
    failure, e.g. an uncoverable instance; retrying cannot help).
    """
    try:
        with attempt_scope(attempt):
            inject("service.request", key=request_id, attempt=attempt)
            system = systems.get(instance)
            if system is None:
                return {
                    "id": request_id,
                    "status": "error",
                    "error": f"unknown instance {instance!r}",
                }
            if budget_s is not None:
                with deadline_scope(Deadline.after(budget_s)):
                    payload = compute_response(system, kind, params)
            else:
                payload = compute_response(system, kind, params)
        return {"id": request_id, "status": "ok", "result": payload}
    except DeadlineExceededError as exc:
        return {"id": request_id, "status": "deadline", "error": str(exc)}
    except TransientTaskError as exc:
        return {"id": request_id, "status": "__transient__", "error": str(exc)}
    except ReproError as exc:
        return {"id": request_id, "status": "error", "error": str(exc)}


def execute_request_batch(items: Sequence[RequestItem]) -> List[Dict[str, Any]]:
    """Worker-side entry point: evaluate a micro-batch against hot instances."""
    return [_execute_one(_WORKER_SYSTEMS, *item) for item in items]


class WorkerPool:
    """A process pool with respawn, retry, breaker, and inline degradation.

    ``workers=0`` skips processes entirely and computes inline — the
    degraded path as the configured path, which tests use for fast
    deterministic serving without fork overhead.

    :meth:`run_batch` is synchronous (the server calls it via
    ``run_in_executor``) and **total**: it returns one status dict per item,
    in input order, no matter what dies underneath it.
    """

    def __init__(
        self,
        descriptors: Dict[str, SourceDescriptor],
        systems: Dict[str, SetSystem],
        workers: int = 2,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.descriptors = dict(descriptors)
        self._systems = dict(systems)
        self.workers = workers
        self.policy = policy or policy_from_env()
        self.breaker = CircuitBreaker(self.policy.breaker_threshold)
        self.respawns = 0
        self.degraded = workers == 0
        self._pool: Optional[ProcessPoolExecutor] = None
        # Several dispatch threads may share one pool (the server runs
        # batches via run_in_executor); only pool *transitions* are locked —
        # submission and result-waiting run concurrently.
        self._lock = threading.Lock()

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_service_worker_init,
                    initargs=(self.descriptors,),
                )
            return self._pool

    def abandon(self) -> None:
        """Drop the pool without waiting; terminate workers that linger.

        Same rationale as the batch executor's pool abandonment: after a
        timeout, ``shutdown(wait=False)`` alone would leave a hung worker
        alive, so the worker processes are terminated directly.  Pending
        submissions observe a broken/cancelled future and recover through
        the normal loss path.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        pool.shutdown(wait=False, cancel_futures=True)
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - best-effort reaping
                pass

    def _degrade(self, reason: str) -> None:
        if not self.degraded:
            self.degraded = True
            record_degradation("serial_execution", reason=reason, scope="service")
            event("service.degraded", reason=reason)
        self.abandon()

    def shutdown(self) -> None:
        """Release worker processes (drain step; idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- execution ---------------------------------------------------------
    def run_batch(self, items: Sequence[RequestItem]) -> List[Dict[str, Any]]:
        """Execute a micro-batch; one result per item, in input order."""
        results: List[Optional[Dict[str, Any]]] = [None] * len(items)
        pending: List[Tuple[int, RequestItem]] = list(enumerate(items))
        while pending:
            batch = [item for _, item in pending]
            outcomes = self._run_once(batch)
            if outcomes is None:
                # Pool lost: bump every in-flight item's attempt (a crash
                # fault with until=1 clears on the re-execution) and go again
                # — _run_once already respawned or degraded, so this loop
                # always makes progress toward the inline path.
                pending = [
                    (slot, (*item[:5], item[5] + 1)) for slot, item in pending
                ]
                continue
            retry: List[Tuple[int, RequestItem]] = []
            for (slot, item), outcome in zip(pending, outcomes):
                if outcome["status"] == "__transient__":
                    attempt = item[5]
                    if attempt + 1 < self.policy.max_attempts:
                        metrics.add("service.request_retries")
                        delay = backoff_delay(
                            self.policy, attempt + 1, path=("service", item[0])
                        )
                        if delay > 0.0:
                            time.sleep(delay)
                        retry.append((slot, (*item[:5], attempt + 1)))
                        continue
                    outcome = {
                        "id": outcome["id"],
                        "status": "error",
                        "error": f"transient failure persisted: {outcome.get('error')}",
                    }
                results[slot] = outcome
            pending = retry
        return [outcome for outcome in results if outcome is not None]

    def _run_once(
        self, batch: List[RequestItem]
    ) -> Optional[List[Dict[str, Any]]]:
        """One execution attempt of ``batch``; ``None`` means the pool died."""
        if self.degraded:
            return [_execute_one(self._systems, *item) for item in batch]
        try:
            future = self._ensure_pool().submit(execute_request_batch, batch)
            outcomes = future.result(timeout=self.policy.timeout)
        except (
            BrokenProcessPool,
            FutureTimeoutError,
            CancelledError,
            RuntimeError,  # submit raced a shutdown pool
            OSError,
            EOFError,
        ) as exc:
            metrics.add("service.pool_losses")
            event("service.pool_lost", error=type(exc).__name__)
            self.breaker.record_failure()
            self.abandon()
            if self.breaker.open:
                self._degrade("service pool breaker open")
            elif self.respawns >= self.policy.max_pool_respawns:
                self._degrade("service pool respawn budget exhausted")
            else:
                self.respawns += 1
                metrics.add("service.pool_respawns")
            return None
        self.breaker.record_success()
        return outcomes


__all__ = [
    "RequestItem",
    "WorkerPool",
    "execute_request_batch",
]
