"""Owned worker processes: forked, one duplex pipe each.

The program's one kind of worker process, which both the batch executor
(:class:`~repro.runtime.executor.TaskExecutor`) and the solver service
(:class:`~repro.service.pool.WorkerPool`) run.  A worker runs an optional
initializer once, then answers each message on its pipe with
``handle(message)`` until it reads the ``None`` stop sentinel or EOF, and it
exits at once when its parent dies.  Recovery belongs to the parent: on EOF,
an ``OSError`` or a missed deadline it :func:`kill` s that one worker and
:func:`spawn` s a replacement.  A handler must not raise, or its worker ends
and counts as lost; an exception meant for the parent is returned as the
reply.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
from multiprocessing.connection import Connection
from typing import Any, Callable, NamedTuple, Optional

from repro.resilience.faults import mark_worker_process

#: Workers are forked: a child inherits the parent's modules (and any patch
#: on them), so neither a handler nor an initializer is pickled.
_FORK = multiprocessing.get_context("fork")

#: Serialises every worker start in the process.  The parent closes its copy
#: of a new worker's end of the pipe before the next fork, so no later worker
#: inherits it and a dead worker's pipe always reads as EOF.
_SPAWN_LOCK = threading.Lock()


class Worker(NamedTuple):
    """A started worker: its process and the parent's end of its pipe."""

    process: Any
    conn: Connection


def spawn(handle: Callable[[Any], Any], init: Optional[Callable] = None, *args: Any) -> Worker:
    """Fork a worker that runs ``init(*args)`` once, then serves ``handle``.

    Raises ``OSError`` when the process cannot be started.
    """
    with _SPAWN_LOCK:
        conn, child = _FORK.Pipe()
        # A fork carries this thread's context, a dispatch thread's
        # telemetry session included; the worker runs in an empty one.
        process = _FORK.Process(
            target=contextvars.Context().run,
            args=(_worker_main, child, conn, handle, init, args),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            conn.close()
            raise
        finally:
            child.close()
    return Worker(process, conn)


def kill(*workers: Worker) -> None:
    """Kill workers, then reap their processes and close their pipes."""
    for worker in workers:
        worker.process.kill()
    for worker in workers:
        worker.process.join()
        worker.conn.close()


def _worker_main(conn: Connection, parent_end: Connection, handle, init, args) -> None:
    """A worker's life: detach from the parent's signals, then serve."""
    parent_end.close()  # the fork copied it; without this, a dead parent is no EOF
    # A forked worker inherits the parent's signal state, including an
    # asyncio loop's wakeup fd: a signal aimed at this worker would reach the
    # parent through that shared pipe.  SIGINT from a terminal is the
    # parent's to handle; it stops its workers itself.
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main-thread/platform
        pass
    mark_worker_process()
    # A busy worker reads no EOF until its task ends; the parent's sentinel
    # ends it at once when the parent dies.
    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(target=_exit_with_parent, args=(sentinel,), daemon=True).start()
    if init is not None:
        init(*args)
    while True:
        try:
            message = conn.recv()
        except EOFError:  # the parent is gone
            return
        if message is None:  # the stop sentinel
            return
        conn.send(handle(message))


def _exit_with_parent(sentinel: int) -> None:
    """Block until the parent process is gone, then end this worker at once."""
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


__all__ = ["Worker", "kill", "spawn"]
