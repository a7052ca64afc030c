"""The solver service's worker pool: owned workers, one pipe each.

:class:`WorkerPool` starts its ``workers`` processes at the first batch with
:func:`repro.resilience.workers.spawn`, the same forked one-pipe workers the
batch executor runs its chunks on.  A worker attaches the published hot
instances from shared memory **once**, in :func:`_load_instances`; after that
a request ships only scalars across the process boundary, never an instance.
A batch checks out an idle worker, sends its items, waits for the reply and
checks the worker back in: one pipe crossing each way, with no executor
queue or management thread in between.

The robustness story reuses :mod:`repro.resilience` wholesale:

* Per-item transient failures (the ``service.request`` ``raise`` fault, a
  lost shared segment) come back as ``__transient__`` statuses and are
  retried item-by-item under the ambient :class:`RetryPolicy`.
* A worker lost under a batch (``service.request`` ``crash`` → ``os._exit``,
  so EOF or an ``OSError`` on its pipe, or no reply within
  ``policy.timeout``) is killed and replaced on its own, at most
  ``policy.max_pool_respawns`` times, and only its batch re-executes.  A
  batch running on another worker never notices.
* A :class:`CircuitBreaker` counts consecutive worker losses; once open — or
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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import DeadlineExceededError, ReproError, TransientTaskError
from repro.resilience.degrade import record_degradation
from repro.resilience.faults import attempt_scope, inject
from repro.resilience.policy import CircuitBreaker, RetryPolicy, backoff_delay, policy_from_env
from repro.resilience.workers import Worker, kill, spawn
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

#: Instances attached from shared memory, populated by the worker initializer.
_WORKER_SYSTEMS: Dict[str, SetSystem] = {}

#: How long :meth:`WorkerPool.shutdown` waits for running batches, and then
#: for each worker to exit on the stop sentinel, before it kills.
_STOP_WAIT_S = 5.0


def _load_instances(descriptors: Dict[str, SourceDescriptor]) -> None:
    """Worker initializer: load the hot instances.

    Each instance is attached from its shared segment, copied into a
    resident :class:`SetSystem` and detached again, so the worker keeps the
    resident kernel and never pins the publisher's memory.
    """
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


def _serve_batch(items: Sequence[RequestItem]) -> List[Dict[str, Any]]:
    """A worker's handler: one status dict per item, whatever goes wrong."""
    try:
        # A module global looked up per batch, so a patched one runs.
        return execute_request_batch(items)
    except Exception as exc:  # a bug, not a lost worker: answer and go on
        error = f"{type(exc).__name__}: {exc}"
        return [{"id": item[0], "status": "error", "error": error} for item in items]


class WorkerPool:
    """Owned worker processes with respawn, retry, breaker, and inline degradation.

    ``workers=0`` skips processes entirely and computes inline — the
    degraded path as the configured path, which tests use for fast
    deterministic serving without fork overhead.

    :meth:`run_batch` is synchronous (the server calls it via
    ``run_in_executor``) and **total**: it returns one status dict per item,
    in input order, no matter what dies underneath it.  Several dispatch
    threads share the pool; each checks out its own worker for a batch.
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
        # ``_cond`` guards the worker lists and the flags below, never a pipe
        # or a fork.  ``_live`` holds every started worker (never more than
        # ``workers``), ``_idle`` those not checked out.  ``_starting``
        # counts starts in progress, which ``shutdown`` waits for.  Whoever
        # takes a worker out of ``_live`` kills and reaps its process; only
        # the thread holding a worker touches its pipe.
        self._cond = threading.Condition()
        self._live: List[Worker] = []
        self._idle: List[Worker] = []
        self._started = False
        self._closed = False
        self._starting = 0

    # -- worker lifecycle --------------------------------------------------
    def _spawn(self) -> None:
        """Start one worker outside the checkout lock and make it idle."""
        with self._cond:
            if self._closed:
                return
            self._starting += 1
        try:
            worker = spawn(_serve_batch, _load_instances, self.descriptors)
            with self._cond:
                keep = not (self._closed or self.degraded) and len(self._live) < self.workers
                if keep:
                    self._live.append(worker)
                    self._idle.append(worker)
            if not keep:
                kill(worker)
        finally:
            with self._cond:
                self._starting -= 1
                self._cond.notify_all()

    def _checkout(self) -> Optional[Worker]:
        """An idle worker, starting a full set when none runs; ``None`` once
        the pool is degraded or closed."""
        while True:
            with self._cond:
                while self._started and not (self._idle or self.degraded or self._closed):
                    self._cond.wait()
                if self.degraded or self._closed:
                    return None
                if self._idle:
                    return self._idle.pop()
                self._started = True
            for _ in range(self.workers):
                self._spawn()

    def _checkin(self, worker: Worker) -> None:
        with self._cond:
            if worker in self._live:
                self._idle.append(worker)
                self._cond.notify_all()
                return
        worker.conn.close()  # abandoned or shut down while it ran

    def _lose(self, worker: Optional[Worker], exc: BaseException) -> None:
        """Kill a lost worker and start its replacement, or degrade.

        ``worker`` is ``None`` when a start failed.  A worker that
        :meth:`abandon` or :meth:`shutdown` already took away was not lost.
        """
        with self._cond:
            if worker is not None:
                if worker not in self._live:
                    worker.conn.close()
                    return
                self._live.remove(worker)
                kill(worker)
                self._cond.notify_all()
            self.breaker.record_failure()
            if self.breaker.open:
                reason: Optional[str] = "service pool breaker open"
            elif self.respawns >= self.policy.max_pool_respawns:
                reason = "service pool respawn budget exhausted"
            else:
                reason = None
                self.respawns += 1
        metrics.add("service.pool_losses")
        event("service.pool_lost", error=type(exc).__name__)
        if reason is not None:
            self._degrade(reason)
            return
        metrics.add("service.pool_respawns")
        try:
            self._spawn()
        except OSError as failed:
            self._lose(None, failed)

    def abandon(self) -> None:
        """Kill every worker now; the next batch starts a fresh set.

        Drain's forced path and degradation use it.  A batch in flight on a
        killed worker sees its pipe close and runs again, inline once the
        pool is degraded, without counting a loss.
        """
        with self._cond:
            self._started = False
            for worker in self._live:
                worker.process.kill()
                worker.process.join()
            for worker in self._idle:
                worker.conn.close()
            self._live, self._idle = [], []
            self._cond.notify_all()

    def _degrade(self, reason: str) -> None:
        with self._cond:
            first, self.degraded = not self.degraded, True
        if first:
            record_degradation("serial_execution", reason=reason, scope="service")
            event("service.degraded", reason=reason)
        self.abandon()

    def shutdown(self) -> None:
        """Stop every worker and close the pool (drain step; idempotent).

        A running batch gets ``_STOP_WAIT_S`` to finish.  Each idle worker
        then gets a stop sentinel and the same time to exit before it is
        killed; a worker still busy is killed.  No worker starts afterwards,
        and a batch that still needs one gets ``error`` outcomes.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            while self._starting:
                self._cond.wait()
            deadline = time.monotonic() + _STOP_WAIT_S
            while len(self._idle) < len(self._live) and time.monotonic() < deadline:
                self._cond.wait(deadline - time.monotonic())
            busy = [worker for worker in self._live if worker not in self._idle]
            idle, self._live, self._idle = self._idle, [], []
        for worker in idle:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in idle:
            worker.process.join(_STOP_WAIT_S)
            kill(worker)
        for worker in busy:
            worker.process.kill()
            worker.process.join()

    # -- execution ---------------------------------------------------------
    def run_batch(self, items: Sequence[RequestItem]) -> List[Dict[str, Any]]:
        """Execute a micro-batch; one result per item, in input order."""
        results: List[Optional[Dict[str, Any]]] = [None] * len(items)
        pending: List[Tuple[int, RequestItem]] = list(enumerate(items))
        while pending:
            batch = [item for _, item in pending]
            outcomes = self._run_once(batch)
            if outcomes is None:
                # Worker lost: bump every in-flight item's attempt (a crash
                # fault with until=1 clears on the re-execution) and go again
                # — _run_once already replaced the worker or degraded, so this
                # loop always makes progress toward the inline path.
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
        """One execution attempt of ``batch``; ``None`` means its worker was lost."""
        if not self.degraded:
            worker = None
            try:
                worker = self._checkout()
                if worker is not None:
                    worker.conn.send(batch)
                    if not worker.conn.poll(self.policy.timeout):
                        raise TimeoutError(f"no reply within {self.policy.timeout}s")
                    outcomes = worker.conn.recv()
            except (EOFError, OSError) as exc:  # TimeoutError is an OSError
                self._lose(worker, exc)
                return None
            if worker is not None:
                self._checkin(worker)
                self.breaker.record_success()
                return outcomes
            if self._closed:
                return [
                    {"id": item[0], "status": "error", "error": "service pool is shut down"}
                    for item in batch
                ]
        return [_execute_one(self._systems, *item) for item in batch]


__all__ = [
    "RequestItem",
    "WorkerPool",
    "execute_request_batch",
]
