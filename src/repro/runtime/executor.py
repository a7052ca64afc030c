"""Sharded execution of runtime tasks with deterministic merging.

The executor partitions a list of :class:`~repro.runtime.tasks.RuntimeTask`
into store hits (skipped) and pending work, runs the pending tasks either
in-process or on a pool of N worker processes — shipped in chunks of about
``default_chunksize`` tasks to amortise per-task pickle/IPC overhead on
large scenario grids — and merges the outcomes back **in submission
order**.  A chunk holds whole cell groups (:func:`plan_chunks`): the cells
that share one engine run go to one worker, which runs it once.  Because
every task carries its own derived seed and the merge order is input order
(never completion order or chunk boundaries), a parallel run's output is
byte-identical to the serial run's for any ``chunksize``.

The workers are the program's one kind of worker process
(:mod:`repro.resilience.workers`): forked, one duplex pipe each, driven by
one thread.  Execution is hardened by :mod:`repro.resilience`: a crashed or
hung worker (EOF on its pipe, or the retry policy's per-task timeout) is
killed and replaced, and only its chunk runs again; payloads that fail their
end-to-end checksum are recomputed rather than merged; and workers that keep
dying degrade the run to in-process serial execution after
``max_pool_respawns`` loss generations — in every case the final
:class:`RunReport` stays byte-identical to a fault-free serial run, because
recovery re-executes pure tasks and merging never depends on completion
order.  ``KeyboardInterrupt`` drains cleanly: the workers are killed, stats
and telemetry are flushed, and a partial report (``interrupted=True``) is
returned instead of a traceback.  No worker outlives a run, and a worker
whose parent dies exits on its own.

A task that runs on an attached instance carries it as a
:class:`~repro.setcover.source.SourceDescriptor`: a heap descriptor ships
the packed bytes, a shared-memory or file descriptor only the segment's or
the file's name, so one instance fans out to many workers cheaply.

Example — one task through the serial executor, and the chunk heuristic::

    >>> report = TaskExecutor().run([RuntimeTask(key="E12", runner="E12")])
    >>> [(outcome.task.key, outcome.status) for outcome in report.outcomes]
    [('E12', 'computed')]
    >>> default_chunksize(pending=100, workers=4)
    7
"""

from __future__ import annotations

import math
import os
import time
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import PayloadIntegrityError
from repro.experiments.harness import ExperimentResult
from repro.experiments.report import result_from_dict
from repro.experiments.workload_defs import outcome_key, release_instance_cache
from repro.resilience.degrade import record_degradation
from repro.resilience.durability import canonical_checksum
from repro.resilience.faults import attempt_scope, faults_enabled, inject
from repro.resilience.policy import CircuitBreaker, RetryPolicy, policy_from_env, retry_call
from repro.resilience.workers import Worker, kill, spawn
from repro.runtime.store import ResultStore
from repro.runtime.tasks import RuntimeTask, execute_task
from repro.telemetry import metrics
from repro.telemetry.session import (
    TelemetrySession,
    active_session,
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
    task: RuntimeTask,
    capture: bool = False,
    base_attempt: int = 0,
    prior: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[str, Any], float]:
    """Worker entry point: run one task, returning (payload, elapsed seconds).

    Durations come from ``perf_counter`` (wall clocks drift and step; the
    monotonic clock is the only honest duration source).  With ``capture``
    on, the task runs inside its own telemetry session, one for all of its
    attempts, so a failed attempt's counters and spans stay in the capture,
    and the session snapshot rides back under :data:`TELEMETRY_KEY` in the
    payload.  ``prior`` is an earlier snapshot of the same task (a payload
    the parent rejected) that the session takes in first.  The snapshot is
    a *sibling* of the result data, popped by the executor before anything
    downstream sees the payload.

    When fault injection is active (``REPRO_FAULTS``), each attempt runs
    inside :func:`~repro.resilience.faults.attempt_scope` starting at
    ``base_attempt`` (the chunk's re-execution generation) with the task's
    key ambient, so per-pass sites draw per task, the
    ``executor.submit`` injection point is evaluated per attempt, transient
    failures are retried in place under the ambient
    :class:`~repro.resilience.policy.RetryPolicy`, and the payload carries
    its end-to-end checksum under :data:`INTEGRITY_KEY` for the parent to
    verify.  Fault-free runs make one attempt and attach no checksum.
    """
    started_wall = time.time()
    started = clock()
    with (TelemetrySession(label=task.key) if capture else nullcontext()) as session:
        if session is not None:
            session.absorb(prior)
        if faults_enabled():
            payload = _run_attempts(task, base_attempt)
        else:
            payload = _run_once(task)
    elapsed = clock() - started
    if session is not None:
        payload[TELEMETRY_KEY] = {
            "snapshot": session.snapshot(),
            "started_wall": started_wall,
            "elapsed": elapsed,
        }
    return payload, elapsed


def _run_once(task: RuntimeTask) -> Dict[str, Any]:
    """One attempt at a task, under its ``task.run`` span."""
    with span("task.run", key=task.key):
        return execute_task(task)


def _run_attempts(task: RuntimeTask, base_attempt: int) -> Dict[str, Any]:
    """Run a task under the active fault plan, retrying transient failures."""

    def attempt_run(relative: int) -> Dict[str, Any]:
        attempt = base_attempt + relative
        with attempt_scope(attempt, task=task.key):
            kind = inject("executor.submit", key=task.key, attempt=attempt)
            payload = _run_once(task)
        checksum = payload_checksum(payload)
        if kind == "corrupt":
            # In-flight corruption: the bytes change after the checksum was
            # taken, so the parent's verification rejects the payload and
            # recomputes — never merges it.
            payload = dict(payload)
            payload["__corrupted__"] = attempt
        payload[INTEGRITY_KEY] = {"checksum": checksum, "attempt": attempt}
        return payload

    return retry_call(
        attempt_run,
        policy=policy_from_env(),
        seed=task.seed or 0,
        path=("task", task.key),
    )


def _run_chunk(message: Tuple[List[RuntimeTask], bool, int]) -> Tuple[Any, Optional[str]]:
    """A pool worker's handler: run one chunk, one pipe round trip.

    Replies ``(results, None)``, or ``(exception, traceback)`` when a task
    raises: the parent re-raises the task's own exception, and this worker
    stays usable.
    """
    tasks, capture, attempt = message
    try:
        return [_timed_execute(task, capture, attempt) for task in tasks], None
    except Exception as exc:
        return exc, traceback.format_exc()


def default_chunksize(pending: int, workers: int) -> int:
    """Chunk size used when the caller does not pick one explicitly.

    Aims for ~4 chunks per worker: large enough to amortise the per-task
    pickle/IPC round trip on big scenario grids, small enough that a slow
    chunk cannot starve the pool of work.
    """
    if pending <= 0:
        return 1
    return max(1, math.ceil(pending / (max(workers, 1) * 4)))


def default_workers() -> int:
    """Worker count ``repro run`` uses when ``--workers`` is not given.

    One per CPU this process may run on: the size of its affinity mask
    where the platform has one, else ``os.cpu_count()``, and never fewer
    than one, so a one-CPU process runs in-process and starts no worker.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def plan_chunks(
    pending: List[Tuple[int, RuntimeTask]], size: int
) -> List[List[Tuple[int, RuntimeTask]]]:
    """Cut pending ``(index, task)`` pairs into chunks of whole cell groups.

    The tasks that share one engine run (one
    :func:`~repro.experiments.workload_defs.outcome_key`) form a group, and
    a task that shares none is a group of its own.  Groups fill chunks in
    the order of their first task, and a chunk closes once it holds
    ``size`` tasks or more, so every group's cells reach one worker, which
    runs the engine once for them.  Each chunk lists its tasks in
    submission order.  A batch with no shared run chunks as
    ``pending[i:i + size]``.
    """
    groups: Dict[Any, List[Tuple[int, RuntimeTask]]] = {}
    for index, task in pending:
        key = outcome_key(task.runner, task.kwargs())
        groups.setdefault(index if key is None else key, []).append((index, task))
    chunks: List[List[Tuple[int, RuntimeTask]]] = []
    chunk: List[Tuple[int, RuntimeTask]] = []
    for group in groups.values():
        chunk.extend(group)
        if len(chunk) >= size:
            chunks.append(chunk)
            chunk = []
    if chunk:
        chunks.append(chunk)
    return [sorted(chunk, key=lambda item: item[0]) for chunk in chunks]


#: A queued chunk: its (index, task) pairs, the attempt generation its tasks
#: run at, and the wall-clock instant it entered the queue (queue-wait
#: accounting).
_Chunk = Tuple[List[Tuple[int, RuntimeTask]], int, float]

#: Each busy worker's pipe -> (the worker, its chunk, the chunk's monotonic
#: deadline, None when timeouts are off).
_Busy = Dict[Connection, Tuple[Worker, _Chunk, Optional[float]]]


class TaskExecutor:
    """Runs task batches serially or across worker processes, with caching.

    ``workers=1`` (the default) runs in-process; ``workers=N`` shards pending
    tasks over N owned worker processes, sending them in chunks of whole
    cell groups (:func:`plan_chunks`) to cut per-task overhead on large
    grids: ``chunksize`` (:func:`default_chunksize` when unset) is the
    target size of a chunk, which rounds up to the end of a group.  If a
    worker cannot start (restricted sandboxes), execution degrades to
    serial and records the ``serial_execution`` degradation — the output
    is identical either way (merging is by submission order, never
    completion order), only wall-clock changes.

    Failure handling follows the ambient
    :class:`~repro.resilience.policy.RetryPolicy` (``REPRO_RETRY``): a lost
    worker or a per-task timeout replaces that worker and re-executes only
    its chunk at the next attempt generation; losses at more than
    ``max_pool_respawns`` generations degrade the rest of the batch to
    serial; a circuit breaker turns workers that can never survive into one
    fast :class:`~repro.exceptions.CircuitOpenError`.
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
        capture = session is not None
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
            # Drain, don't traceback: close the generator (which kills and
            # reaps the workers), keep what finished, and fall through to the
            # flush path below.
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
        ambient retry policy.  The discarded payload's telemetry carries
        over into the recomputation's.
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
        rejected = payload.get(TELEMETRY_KEY)

        def recompute(relative: int) -> Tuple[Dict[str, Any], float]:
            nonlocal rejected
            fresh, fresh_elapsed = _timed_execute(
                task,
                capture,
                base_attempt=base_attempt + 1 + relative,
                prior=rejected["snapshot"] if rejected else None,
            )
            check = fresh.pop(INTEGRITY_KEY, None)
            if check is not None and check.get("checksum") != payload_checksum(fresh):
                rejected = fresh.get(TELEMETRY_KEY)
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
        base_attempt: int,
        submit_wall: float,
    ) -> Iterator[Tuple[int, RuntimeTask, Dict[str, Any], float, float]]:
        """Run a chunk in-process, yielding settled results.

        ``submit_wall`` is the wall-clock instant the chunk was queued, so a
        task's queue wait counts the tasks that ran before it.
        """
        for index, task in chunk:
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
            return self._execute_serial(pending, capture, 0, time.time())
        return self._execute_pool(pending, capture)

    def _execute_pool(
        self, pending: List[Tuple[int, RuntimeTask]], capture: bool = False
    ) -> Iterator[Tuple[int, RuntimeTask, Dict[str, Any], float, float]]:
        """Run the pending tasks on owned worker processes, a chunk at a time.

        Tasks ship in chunks of whole cell groups (:func:`plan_chunks`), so a
        large grid pays one pipe round trip per chunk instead of per task,
        and the cells that share an engine run share a worker.  One thread
        waits on every worker's pipe at once and gives a worker that replies
        its next chunk before it yields the reply's results.
        ``submit_wall`` is the wall-clock instant a chunk entered the queue
        (queue-wait accounting); ``capture`` turns on telemetry capture
        inside the workers.  A task's own exception comes back over the
        pipe and propagates unchanged.

        A worker whose pipe reads EOF or fails, or that misses its chunk's
        deadline, is killed and replaced, and only its chunk runs again, at
        the next attempt generation.  The first loss at each generation
        counts once against the breaker and ``max_pool_respawns``, as the
        loss of a whole pool would.  Past that budget, or when a worker
        cannot start, the remaining chunks run in-process from the next
        generation on (:func:`record_degradation`).  Tasks are pure, so
        recovery costs wall-clock, never bytes.  Every worker is killed and
        reaped before this generator returns, raises or is closed.
        """
        policy = policy_from_env()
        chunks = plan_chunks(
            pending, self.chunksize or default_chunksize(len(pending), self.workers)
        )
        breaker = CircuitBreaker(policy.breaker_threshold)
        idle: List[Worker] = []
        busy: _Busy = {}
        lost_generations = 0  # chunks were lost at attempts below this one
        reason: Optional[str] = None
        try:
            try:
                for _ in range(min(self.workers, len(chunks))):
                    idle.append(spawn(_run_chunk))
            except OSError:
                reason = "pool workers failed to start"
            queued = time.time()
            queue: "deque[_Chunk]" = deque((chunk, 0, queued) for chunk in chunks)
            while reason is None and (queue or busy):
                while queue and idle:
                    _send(idle.pop(), queue.popleft(), busy, capture, policy)
                replies, lost = _await_replies(busy)
                idle.extend(worker for worker, _, _ in replies)
                while queue and idle:  # dispatch before merging
                    _send(idle.pop(), queue.popleft(), busy, capture, policy)
                if replies:
                    breaker.record_success()
                for worker, (chunk, attempt, _) in lost:
                    kill(worker)
                    queue.append((chunk, attempt + 1, time.time()))
                    if attempt >= lost_generations:
                        lost_generations = attempt + 1
                        breaker.record_failure()
                        breaker.check()
                        metrics.add("executor.pool_respawns")
                        event("executor.pool_respawn", generation=attempt)
                    if lost_generations > policy.max_pool_respawns:
                        reason = "pool respawn budget exhausted"
                    elif reason is None:
                        try:
                            idle.append(spawn(_run_chunk))
                        except OSError:
                            reason = "pool workers failed to start"
                for _, (chunk, attempt, submit_wall), (results, remote) in replies:
                    if remote is not None:
                        raise results from RuntimeError(f"raised in a worker:\n{remote}")
                    for (index, task), (payload, elapsed) in zip(chunk, results):
                        payload, elapsed = self._settle(task, payload, elapsed, capture, attempt)
                        yield index, task, payload, elapsed, submit_wall
            left = [chunk for _, chunk, _ in busy.values()] + list(queue)
        finally:
            kill(*idle, *(worker for worker, _, _ in busy.values()))
        if reason is not None:
            record_degradation("serial_execution", reason=reason, respawns=lost_generations)
        for chunk, attempt, submit_wall in sorted(left, key=lambda item: item[0][0][0]):
            yield from self._execute_serial(
                chunk, capture, max(attempt, lost_generations), submit_wall
            )


def _send(worker: Worker, chunk: _Chunk, busy: _Busy, capture: bool, policy: RetryPolicy) -> None:
    """Hand ``worker`` a chunk and arm the chunk's deadline."""
    tasks, attempt, _ = chunk
    timeout = policy.timeout
    deadline = None if timeout is None else time.monotonic() + timeout * len(tasks)
    busy[worker.conn] = (worker, chunk, deadline)
    try:
        worker.conn.send(([task for _, task in tasks], capture, attempt))
    except OSError:
        pass  # a dead worker: its pipe reads EOF, and the next wait reports it


def _await_replies(
    busy: _Busy,
) -> Tuple[List[Tuple[Worker, _Chunk, Any]], List[Tuple[Worker, _Chunk]]]:
    """Wait until busy workers reply, are lost or miss their deadlines.

    Returns ``(replies, lost)`` — ``(worker, chunk, reply)`` and
    ``(worker, chunk)`` entries — and takes all of them out of ``busy``.
    """
    deadlines = [deadline for _, _, deadline in busy.values() if deadline is not None]
    timeout = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
    replies: List[Tuple[Worker, _Chunk, Any]] = []
    lost: List[Tuple[Worker, _Chunk]] = []
    for conn in wait(list(busy), timeout):
        worker, chunk, _ = busy.pop(conn)
        try:
            replies.append((worker, chunk, conn.recv()))
        except (EOFError, OSError) as exc:
            metrics.add("executor.worker_lost")
            event("executor.worker_lost", error=type(exc).__name__)
            lost.append((worker, chunk))
    now = time.monotonic()
    for conn, (worker, chunk, deadline) in list(busy.items()):
        if deadline is not None and deadline <= now:
            # A hung worker never replies: kill it, as a crashed one.
            del busy[conn]
            metrics.add("executor.timeouts")
            event("executor.timeout", tasks=len(chunk[0]))
            lost.append((worker, chunk))
    return replies, lost
