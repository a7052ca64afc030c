"""Sharded execution of runtime tasks with deterministic merging.

The executor partitions a list of :class:`~repro.runtime.tasks.RuntimeTask`
into store hits (skipped) and pending work, runs the pending tasks either
in-process or on a pool of N worker processes — shipped in contiguous chunks
to amortise per-task pickle/IPC overhead on large scenario grids — and merges
the outcomes back **in submission order**.  Because every task carries its
own derived seed and the merge order is input order (never completion order
or chunk boundaries), a parallel run's output is byte-identical to the
serial run's for any ``chunksize``.

Execution is hardened by :mod:`repro.resilience`: a crashed or hung worker
(detected via ``BrokenProcessPool`` or the retry policy's per-task timeout)
costs a pool respawn and a re-execution of only the lost chunks; payloads
that fail their end-to-end checksum are recomputed rather than merged; and a
pool that keeps dying degrades to in-process serial execution after
``max_pool_respawns`` — in every case the final :class:`RunReport` stays
byte-identical to a fault-free serial run, because recovery re-executes pure
tasks and merging never depends on completion order.  ``KeyboardInterrupt``
drains cleanly: outstanding futures are cancelled, stats and telemetry are
flushed, and a partial report (``interrupted=True``) is returned instead of
a traceback.  Every pool the executor gives up on has its workers
terminated, and a worker whose parent dies exits on its own.

Also exposes :func:`run_cached`, the store-aware entry point the benchmark
harness wraps experiment calls in.

Instances embedded in tasks cross the worker boundary in the packed wire
form (:class:`~repro.setcover.PackedSetSystem`): one contiguous bytes buffer
per system instead of per-set Python objects, adopted zero-copy by the
worker's NumPy kernel.  Tasks that fan a single instance out to many workers
carry a :class:`~repro.setcover.source.SourceDescriptor` instead, so only
the shared segment's or the file's name crosses the boundary.

Example — one task through the serial executor, and the chunk heuristic::

    >>> report = TaskExecutor().run([RuntimeTask(key="E12", runner="E12")])
    >>> [(outcome.task.key, outcome.status) for outcome in report.outcomes]
    [('E12', 'computed')]
    >>> default_chunksize(pending=100, workers=4)
    7
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.exceptions import PayloadIntegrityError
from repro.experiments.harness import ExperimentResult
from repro.experiments.report import result_from_dict, result_to_dict
from repro.experiments.workload_defs import release_instance_cache
from repro.resilience.degrade import record_degradation
from repro.resilience.durability import canonical_checksum
from repro.resilience.faults import attempt_scope, faults_enabled, inject, mark_worker_process
from repro.resilience.policy import CircuitBreaker, RetryPolicy, policy_from_env, retry_call
from repro.runtime.scenarios import freeze_params
from repro.runtime.store import ResultStore
from repro.runtime.tasks import RuntimeTask, execute_task
from repro.telemetry import metrics
from repro.telemetry.session import (
    TelemetrySession,
    active_session,
    capture_wanted,
    merge_telemetry_blocks,
    summarize_snapshot,
)
from repro.telemetry.spans import clock, event, span

#: Outcome status markers (also what the CLI prints, so they are part of the
#: observable cache behaviour).
STATUS_COMPUTED = "computed"
STATUS_CACHED = "cached"

#: Reserved key a capturing worker smuggles its telemetry snapshot back
#: under, inside the (otherwise pure-result) task payload.  The executor pops
#: it before the payload is persisted or handed to callers, so the result
#: dict observable anywhere downstream is byte-identical with telemetry on or
#: off.
TELEMETRY_KEY = "__telemetry__"

#: Reserved key carrying a payload's end-to-end checksum across the worker
#: IPC boundary (attached only under active fault injection, popped and
#: verified by the parent before the payload is merged or persisted).
INTEGRITY_KEY = "__integrity__"

#: Reserved payload keys excluded from the integrity checksum.
_RESERVED_KEYS = (TELEMETRY_KEY, INTEGRITY_KEY)


def payload_checksum(payload: Dict[str, Any]) -> str:
    """Checksum of a task payload's *result* bytes (reserved keys excluded)."""
    return canonical_checksum(
        {key: value for key, value in payload.items() if key not in _RESERVED_KEYS}
    )


@dataclass
class TaskOutcome:
    """One task's terminal state: its payload plus how it was obtained.

    ``telemetry`` carries the computing run's summarized telemetry block
    (counters / gauges / histograms / span summary) when capture was on —
    for cached outcomes, the block stored alongside the entry, if any.
    """

    task: RuntimeTask
    payload: Dict[str, Any]
    status: str
    elapsed: float = 0.0
    telemetry: Optional[Dict[str, Any]] = None

    def result(self) -> ExperimentResult:
        """Materialise the payload back into an :class:`ExperimentResult`."""
        return result_from_dict(self.payload)


@dataclass
class RunReport:
    """The merged, submission-ordered outcomes of one executor run.

    ``telemetry`` is the deterministic submission-order merge of the
    per-outcome telemetry blocks (``None`` when no outcome carried one).
    ``interrupted`` marks a run cut short by ``KeyboardInterrupt``: the
    outcomes present are complete and merged in submission order, the rest
    of the batch simply was not reached (a store-backed rerun resumes it).
    """

    outcomes: List[TaskOutcome] = field(default_factory=list)
    workers: int = 1
    interrupted: bool = False
    telemetry: Optional[Dict[str, Any]] = None

    def results(self) -> List[ExperimentResult]:
        return [outcome.result() for outcome in self.outcomes]

    def counts(self) -> Dict[str, int]:
        """How many tasks were computed vs served from the store."""
        counts = {STATUS_COMPUTED: 0, STATUS_CACHED: 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.outcomes)


def _timed_execute(
    task: RuntimeTask, capture: bool = False, base_attempt: int = 0
) -> Tuple[Dict[str, Any], float]:
    """Worker entry point: run one task, returning (payload, elapsed seconds).

    Durations come from ``perf_counter`` (wall clocks drift and step; the
    monotonic clock is the only honest duration source).  With ``capture``
    on — passed explicitly by the executor, or demanded by the environment
    (``REPRO_TRACE``/``REPRO_TELEMETRY``) for workers whose parent could not
    reach them — the task runs inside its own telemetry session and the
    session snapshot rides back under :data:`TELEMETRY_KEY` in the payload.
    The snapshot is a *sibling* of the result data, popped by the executor
    before anything downstream sees the payload.

    When fault injection is active (``REPRO_FAULTS``), each attempt runs
    inside :func:`~repro.resilience.faults.attempt_scope` starting at
    ``base_attempt`` (the chunk's re-execution generation), the
    ``executor.submit`` injection point is evaluated per attempt, transient
    failures are retried in place under the ambient
    :class:`~repro.resilience.policy.RetryPolicy`, and the payload carries
    its end-to-end checksum under :data:`INTEGRITY_KEY` for the parent to
    verify.  Fault-free runs take the original zero-overhead path.
    """
    started_wall = time.time()
    started = clock()
    if not capture:
        capture = capture_wanted()
    if not faults_enabled():
        if not capture:
            payload = execute_task(task)
            return payload, clock() - started
        with TelemetrySession(label=task.key) as session:
            with span("task.run", key=task.key):
                payload = execute_task(task)
        elapsed = clock() - started
        payload[TELEMETRY_KEY] = {
            "snapshot": session.snapshot(),
            "started_wall": started_wall,
            "elapsed": elapsed,
        }
        return payload, elapsed

    def attempt_run(relative: int) -> Dict[str, Any]:
        attempt = base_attempt + relative
        with attempt_scope(attempt):
            kind = inject("executor.submit", key=task.key, attempt=attempt)
            shipped: Optional[Dict[str, Any]] = None
            if capture:
                with TelemetrySession(label=task.key) as session:
                    with span("task.run", key=task.key):
                        payload = execute_task(task)
                shipped = {
                    "snapshot": session.snapshot(),
                    "started_wall": started_wall,
                    "elapsed": 0.0,
                }
            else:
                payload = execute_task(task)
            checksum = payload_checksum(payload)
            if kind == "corrupt":
                # In-flight corruption: the bytes change after the checksum
                # was taken, so the parent's verification rejects the payload
                # and recomputes — never merges it.
                payload = dict(payload)
                payload["__corrupted__"] = attempt
            payload[INTEGRITY_KEY] = {"checksum": checksum, "attempt": attempt}
            if shipped is not None:
                payload[TELEMETRY_KEY] = shipped
            return payload

    payload = retry_call(
        attempt_run,
        policy=policy_from_env(),
        seed=task.seed or 0,
        path=("task", task.key),
    )
    elapsed = clock() - started
    if TELEMETRY_KEY in payload:
        payload[TELEMETRY_KEY]["elapsed"] = elapsed
    return payload, elapsed


def _timed_execute_chunk(
    tasks: List[RuntimeTask], capture: bool = False, base_attempt: int = 0
) -> List[Tuple[Dict[str, Any], float]]:
    """Worker entry point for a chunk: one IPC round trip, many tasks."""
    return [_timed_execute(task, capture, base_attempt) for task in tasks]


def _pool_worker_init() -> None:
    """Pool worker initializer: mark the process, and tie its life to the parent.

    A worker blocks on the pool's call queue, whose write end it inherited,
    so a parent killed without a shutdown never sends it EOF.  A daemon
    thread waits on the parent's sentinel instead and exits the worker.
    """
    mark_worker_process()
    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(target=_exit_with_parent, args=(sentinel,), daemon=True).start()


def _exit_with_parent(sentinel: int) -> None:
    """Block until the parent process is gone, then end this worker at once."""
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


def default_chunksize(pending: int, workers: int) -> int:
    """Chunk size used when the caller does not pick one explicitly.

    Aims for ~4 chunks per worker: large enough to amortise the per-task
    pickle/IPC round trip on big scenario grids, small enough that a slow
    chunk cannot starve the pool of work.
    """
    if pending <= 0:
        return 1
    return max(1, math.ceil(pending / (max(workers, 1) * 4)))


#: One submitted chunk's bookkeeping: the (index, task) pairs, the attempt
#: generation its tasks run at, the wall-clock submit instant (queue-wait
#: accounting), and the monotonic deadline (None when timeouts are off).
_ChunkInfo = Tuple[List[Tuple[int, RuntimeTask]], int, float, Optional[float]]


class TaskExecutor:
    """Runs task batches serially or across worker processes, with caching.

    ``workers=1`` (the default) runs in-process; ``workers=N`` shards pending
    tasks over a :class:`ProcessPoolExecutor`, submitting them in contiguous
    chunks (``chunksize`` tasks per IPC round trip; an auto heuristic when
    unset) to cut per-task overhead on large grids.  If a pool cannot start
    its workers (restricted sandboxes), execution degrades to serial and
    records the ``serial_execution`` degradation — the output is identical
    either way (merging is by submission order, never completion order),
    only wall-clock changes.

    Failure handling follows the ambient
    :class:`~repro.resilience.policy.RetryPolicy` (``REPRO_RETRY``): lost
    workers and per-task timeouts respawn the pool and re-execute only the
    lost chunks at the next attempt generation; repeated pool loss beyond
    ``max_pool_respawns`` degrades the rest of the batch to serial; a
    circuit breaker turns a pool that can never survive into one fast
    :class:`~repro.exceptions.CircuitOpenError`.
    """

    def __init__(
        self,
        workers: int = 1,
        store: Optional[ResultStore] = None,
        chunksize: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        self.workers = workers
        self.store = store
        self.chunksize = chunksize

    def run(self, tasks: Iterable[RuntimeTask]) -> RunReport:
        """Execute the batch and return submission-ordered outcomes.

        Computed results are persisted to the store *as each task finishes*
        (serial runs) or as each chunk of tasks finishes (sharded runs) —
        never only after the whole batch — so an interrupted or partially
        failing sweep resumes from the work that completed before the
        failure.  ``KeyboardInterrupt`` is absorbed into a partial report
        (``interrupted=True``) after cancelling outstanding work and
        flushing stats and telemetry.  However the run ends, the instance
        data its in-process tasks cached is released
        (:func:`~repro.experiments.workload_defs.release_instance_cache`).
        """
        ordered = list(tasks)
        session = active_session()
        capture = session is not None or capture_wanted()
        outcomes: Dict[int, TaskOutcome] = {}
        raw_telemetry: Dict[int, Dict[str, Any]] = {}
        pending: List[Tuple[int, RuntimeTask]] = []
        for index, task in enumerate(ordered):
            entry = self.store.fetch(task) if self.store is not None else None
            if entry is not None:
                self.store.record_skip()
                metrics.add("executor.tasks.cached")
                outcomes[index] = TaskOutcome(
                    task=task,
                    payload=entry["result"],
                    status=STATUS_CACHED,
                    telemetry=entry.get("telemetry"),
                )
            else:
                pending.append((index, task))

        interrupted = False
        execute_iter = self._execute_pending(pending, capture)
        try:
            for index, task, payload, elapsed, submit_wall in execute_iter:
                shipped = payload.pop(TELEMETRY_KEY, None)
                block = summarize_snapshot(shipped["snapshot"]) if shipped else None
                if shipped is not None:
                    shipped["submit_wall"] = submit_wall
                    raw_telemetry[index] = shipped
                if self.store is not None:
                    self.store.put(task, payload, telemetry=block)
                metrics.add("executor.tasks.computed")
                outcomes[index] = TaskOutcome(
                    task=task,
                    payload=payload,
                    status=STATUS_COMPUTED,
                    elapsed=elapsed,
                    telemetry=block,
                )
        except KeyboardInterrupt:
            # Drain, don't traceback: close the generator (which cancels
            # outstanding futures and abandons the pool), keep what finished,
            # and fall through to the flush path below.
            interrupted = True
            metrics.add("executor.interrupted")
            event("executor.interrupt", completed=len(outcomes), total=len(ordered))
            execute_iter.close()
        finally:
            # Instance data the in-process tasks cached lives for this run
            # only (a pool worker keeps its own until it exits).
            release_instance_cache()

        if session is not None:
            self._absorb_telemetry(session, ordered, raw_telemetry)
        if self.store is not None:
            self.store.flush_stats()

        if interrupted:
            report_outcomes = [outcomes[index] for index in sorted(outcomes)]
        else:
            report_outcomes = [outcomes[index] for index in range(len(ordered))]
        return RunReport(
            outcomes=report_outcomes,
            workers=self.workers,
            interrupted=interrupted,
            telemetry=merge_telemetry_blocks(o.telemetry for o in report_outcomes),
        )

    @staticmethod
    def _absorb_telemetry(
        session: TelemetrySession,
        ordered: List[RuntimeTask],
        raw_telemetry: Dict[int, Dict[str, Any]],
    ) -> None:
        """Fold worker snapshots into the parent session, submission order.

        For each computed task a manufactured ``task.lifecycle`` span groups
        its ``task.queue_wait`` (submit wall clock to worker start — wall
        clocks because ``perf_counter`` is not comparable across processes),
        the absorbed worker spans (``task.run`` and everything under it), and
        the parent-side ``task.merge``.
        """
        for index in sorted(raw_telemetry):
            shipped = raw_telemetry[index]
            task = ordered[index]
            snapshot = shipped.get("snapshot") or {}
            queue_wait = max(
                0.0,
                snapshot.get("started_wall", 0.0) - shipped.get("submit_wall", 0.0),
            )
            lifecycle = session.tracer.add_span(
                "task.lifecycle",
                duration=queue_wait + shipped.get("elapsed", 0.0),
                key=task.key,
            )
            session.tracer.add_span(
                "task.queue_wait",
                duration=queue_wait,
                parent_id=lifecycle,
                key=task.key,
            )
            merge_start = clock()
            session.absorb(snapshot, under=lifecycle, extra_attrs={"task": task.key})
            session.tracer.add_span(
                "task.merge",
                duration=clock() - merge_start,
                parent_id=lifecycle,
                key=task.key,
            )

    def _settle(
        self,
        task: RuntimeTask,
        payload: Dict[str, Any],
        elapsed: float,
        capture: bool,
        base_attempt: int,
    ) -> Tuple[Dict[str, Any], float]:
        """Verify a payload's end-to-end checksum; recompute on mismatch.

        Payloads without an :data:`INTEGRITY_KEY` (the fault-free fast path)
        pass through untouched.  A mismatch means the bytes were corrupted in
        flight: the payload is discarded — never merged — and the task is
        re-executed in-process at the next attempt generation under the
        ambient retry policy.
        """
        if not isinstance(payload, dict):
            raise PayloadIntegrityError(
                f"task {task.key!r} returned a non-dict payload ({type(payload).__name__})"
            )
        integrity = payload.pop(INTEGRITY_KEY, None)
        if integrity is None or integrity.get("checksum") == payload_checksum(payload):
            return payload, elapsed

        metrics.add("executor.payload_rejected")
        event("payload.reject", key=task.key, attempt=integrity.get("attempt"))

        def recompute(relative: int) -> Tuple[Dict[str, Any], float]:
            fresh, fresh_elapsed = _timed_execute(
                task, capture, base_attempt=base_attempt + 1 + relative
            )
            check = fresh.pop(INTEGRITY_KEY, None)
            if check is not None and check.get("checksum") != payload_checksum(fresh):
                raise PayloadIntegrityError(
                    f"task {task.key!r} payload failed its checksum after recompute"
                )
            return fresh, fresh_elapsed

        return retry_call(
            recompute,
            policy=policy_from_env(),
            seed=task.seed or 0,
            path=("integrity", task.key),
        )

    def _execute_serial(
        self,
        chunk: List[Tuple[int, RuntimeTask]],
        capture: bool,
        base_attempt: int = 0,
    ) -> Iterator[Tuple[int, RuntimeTask, Dict[str, Any], float, float]]:
        """Run a chunk in-process, yielding settled results."""
        for index, task in chunk:
            submit_wall = time.time()
            payload, elapsed = _timed_execute(task, capture, base_attempt)
            payload, elapsed = self._settle(task, payload, elapsed, capture, base_attempt)
            yield index, task, payload, elapsed, submit_wall

    def _execute_pending(
        self, pending: List[Tuple[int, RuntimeTask]], capture: bool = False
    ) -> Iterator[Tuple[int, RuntimeTask, Dict[str, Any], float, float]]:
        """Yield ``(index, task, payload, elapsed, submit_wall)`` as tasks finish.

        One worker, or a single pending task, runs in-process: a pool is
        pure overhead for it.  Anything else runs on the chunked pool.  Both
        paths yield completion order, not submission order; the caller
        persists each result eagerly and re-sorts by index afterwards, so
        the choice can never change the merged bytes.
        """
        if self.workers == 1 or len(pending) <= 1:
            return self._execute_serial(pending, capture)
        return self._execute_pool(pending, capture)

    def _execute_pool(
        self, pending: List[Tuple[int, RuntimeTask]], capture: bool = False
    ) -> Iterator[Tuple[int, RuntimeTask, Dict[str, Any], float, float]]:
        """Run the pending tasks on the chunked worker pool.

        Tasks ship to the workers in contiguous chunks so a large grid pays
        one pickle/IPC round trip per chunk instead of per task.  Worker-
        start failure (restricted sandboxes) degrades to the serial path; a
        task's own exception propagates unchanged.  ``submit_wall`` is the
        wall-clock instant the task was handed to its runner (queue-wait
        accounting); ``capture`` turns on telemetry capture inside the
        workers.

        A broken pool (crashed worker) or an expired per-task deadline
        abandons the pool, counts the loss, and requeues every unconsumed
        chunk at the next attempt generation; the pool is respawned up to
        ``max_pool_respawns`` times, after which the remainder runs serially
        in-process (:func:`record_degradation`).  Re-execution only ever
        costs wall-clock: tasks are pure, so the merged bytes are identical.
        """
        if not pending:
            return

        policy = policy_from_env()
        size = self.chunksize or default_chunksize(len(pending), self.workers)
        queue: "deque[Tuple[List[Tuple[int, RuntimeTask]], int]]" = deque(
            (pending[start : start + size], 0)
            for start in range(0, len(pending), size)
        )
        breaker = CircuitBreaker(policy.breaker_threshold)
        respawns = 0
        pool: Optional[ProcessPoolExecutor] = None
        future_info: Dict[Any, _ChunkInfo] = {}
        try:
            while queue or future_info:
                if pool is None:
                    try:
                        pool, future_info = self._submit_chunks(queue, capture, policy)
                    except OSError:
                        record_degradation(
                            "serial_execution", reason="pool workers failed to start"
                        )
                        while queue:
                            chunk, attempt = queue.popleft()
                            yield from self._execute_serial(chunk, capture, attempt)
                        return

                round_result = self._await_one_round(pool, future_info, policy)
                for future, results in round_result["done"].items():
                    chunk, attempt, submit_wall, _ = future_info.pop(future)
                    for (index, task), (payload, elapsed) in zip(chunk, results):
                        payload, elapsed = self._settle(
                            task, payload, elapsed, capture, attempt
                        )
                        yield index, task, payload, elapsed, submit_wall
                if round_result["broken"]:
                    breaker.record_failure()
                    breaker.check()
                    respawns += 1
                    metrics.add("executor.pool_respawns")
                    self._abandon_pool(pool)
                    pool = None
                    # Every unconsumed chunk rode the dead pool: requeue all
                    # of them at the next attempt generation.
                    for future in list(future_info):
                        chunk, attempt, _, _ = future_info.pop(future)
                        queue.append((chunk, attempt + 1))
                    event("executor.pool_respawn", respawns=respawns, lost=len(queue))
                    if respawns > policy.max_pool_respawns:
                        record_degradation(
                            "serial_execution",
                            reason="pool respawn budget exhausted",
                            respawns=respawns,
                        )
                        while queue:
                            chunk, attempt = queue.popleft()
                            yield from self._execute_serial(chunk, capture, attempt)
                        return
                else:
                    breaker.record_success()
        finally:
            if pool is not None:
                self._abandon_pool(pool)

    def _submit_chunks(
        self,
        queue: "deque[Tuple[List[Tuple[int, RuntimeTask]], int]]",
        capture: bool,
        policy: RetryPolicy,
    ) -> Tuple[ProcessPoolExecutor, Dict[Any, _ChunkInfo]]:
        """Spawn a pool and submit every queued chunk to it.

        Worker processes spawn lazily at submit time, so a submit is the
        probe for "can this environment fork at all".  When one fails, the
        half-started pool is abandoned, every chunk goes back on the queue
        in order, and the ``OSError`` is the caller's signal to degrade to
        serial.
        """
        pool = ProcessPoolExecutor(
            max_workers=min(self.workers, max(1, len(queue))),
            initializer=_pool_worker_init,
        )
        future_info: Dict[Any, _ChunkInfo] = {}
        while queue:
            chunk, attempt = queue.popleft()
            try:
                future = pool.submit(
                    _timed_execute_chunk, [task for _, task in chunk], capture, attempt
                )
            except OSError:
                self._abandon_pool(pool)
                submitted = [(c, a) for c, a, _, _ in future_info.values()]
                queue.extendleft(reversed(submitted + [(chunk, attempt)]))
                raise
            deadline = (
                time.monotonic() + policy.timeout * len(chunk)
                if policy.timeout is not None
                else None
            )
            future_info[future] = (chunk, attempt, time.time(), deadline)
        return pool, future_info

    @staticmethod
    def _await_one_round(
        pool: ProcessPoolExecutor,
        future_info: Dict[Any, _ChunkInfo],
        policy: RetryPolicy,
    ) -> Dict[str, Any]:
        """Wait for completions (or a loss signal) among outstanding futures.

        Returns ``{"done": {future: results}, "broken": bool}`` — the chunk
        results that can be consumed, and whether the pool must be abandoned
        (a worker died or a deadline expired; every unconsumed chunk is then
        lost and must be requeued).
        """
        done_results: Dict[Any, List[Tuple[Dict[str, Any], float]]] = {}
        broken = False
        while future_info and not done_results and not broken:
            timeout = None
            if policy.timeout is not None:
                now = time.monotonic()
                deadlines = [
                    info[3] for info in future_info.values() if info[3] is not None
                ]
                if deadlines:
                    timeout = max(0.0, min(deadlines) - now)
            done, _ = wait(set(future_info), timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                now = time.monotonic()
                expired = [
                    future
                    for future, info in future_info.items()
                    if info[3] is not None and info[3] <= now
                ]
                if expired:
                    # A hung worker never returns and a pool cannot shoot a
                    # single worker; abandoning the whole pool is the only
                    # sound recovery, re-queueing everything unconsumed.
                    metrics.add("executor.timeouts")
                    event("executor.timeout", chunks=len(expired))
                    broken = True
                continue
            for future in done:
                try:
                    done_results[future] = future.result()
                except (BrokenProcessPool, OSError, EOFError) as exc:
                    metrics.add("executor.worker_lost")
                    event("executor.worker_lost", error=type(exc).__name__)
                    done_results.pop(future, None)
                    broken = True
        return {"done": done_results, "broken": broken}

    @staticmethod
    def _abandon_pool(pool: ProcessPoolExecutor) -> None:
        """Shut a pool down without waiting, and terminate its workers.

        ``shutdown(wait=False)`` does not interrupt a worker mid-task, so a
        hung worker would otherwise outlive the executor; terminating the
        worker processes directly (private but stable attribute) is the only
        way to reap them.  ``shutdown`` drops the pool's reference to its
        processes, so the list is taken before it.
        """
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - best-effort reaping
                pass


def run_cached(
    func: Callable[..., ExperimentResult],
    kwargs: Mapping[str, Any],
    store: ResultStore,
) -> Tuple[ExperimentResult, str]:
    """Run an experiment function through the result store.

    Resolves ``func`` back to its experiment-registry id so the fingerprint
    matches CLI-initiated runs of the same computation; unregistered
    functions are fingerprinted under their qualified name.  Returns the
    result plus the outcome status (``"computed"``/``"cached"``).
    """
    from repro.experiments.runners import RUNNER_REGISTRY

    runner_id = next(
        (eid for eid, fn in RUNNER_REGISTRY.items() if fn is func),
        f"{func.__module__}.{func.__qualname__}",
    )
    seed = kwargs.get("seed")
    params = {key: value for key, value in kwargs.items() if key != "seed"}
    task = RuntimeTask(
        key=runner_id, runner=runner_id, params=freeze_params(params), seed=seed
    )
    cached = store.get(task)
    if cached is not None:
        store.record_skip()
        return result_from_dict(cached), STATUS_CACHED
    result = func(**kwargs)
    store.put(task, result_to_dict(result))
    return result, STATUS_COMPUTED
