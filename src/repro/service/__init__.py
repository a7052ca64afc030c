"""Solver-as-a-service: a long-lived async front end over hot instances.

``repro.service`` turns the batch stack into a serving path: a long-lived
asyncio server (``repro serve``) holds hot set-system instances in shared
memory (:class:`~repro.setcover.source.SharedMemorySource`), accepts
cover / max-coverage / value-estimate requests over a length-prefixed JSON
socket protocol, micro-batches them onto a worker pool, and caches responses
by the packed-buffer request fingerprint.  The robustness layer is the point:

* **Deadlines** (:mod:`~repro.service.deadline`): a contextvar deadline token
  that propagates into cooperative cancellation checks at streaming pass
  boundaries — zero-cost when unset, same off-switch pattern as telemetry.
* **Admission control** (:mod:`~repro.service.server`): a bounded request
  queue; when it is full the service *sheds* with an explicit response,
  never queues unboundedly, never hangs.
* **Worker-side resilience**: worker crashes respawn the pool and re-execute
  under :class:`~repro.resilience.policy.RetryPolicy`; a
  :class:`~repro.resilience.policy.CircuitBreaker` turns persistent pool
  loss into inline degraded execution (requests keep being answered).
* **Graceful drain**: SIGTERM lets in-flight requests finish or time out,
  rejects the queue with explicit ``draining`` responses, and unlinks the
  shared segments deterministically.

``repro loadgen`` (:mod:`~repro.service.loadgen`) drives thousands of seeded
concurrent clients against a running service and reports latency percentiles
and shed rate; ``benchmarks/bench_service.py`` commits them as
``BENCH_service.json``.

This ``__init__`` stays import-light (deadline + protocol only) because the
streaming layer imports the deadline check from here; the server, client,
and load generator are imported from their modules directly.

Example — the deadline token is ambient and cooperative::

    >>> from repro.exceptions import DeadlineExceededError
    >>> from repro.service.deadline import Deadline, check_deadline, deadline_scope
    >>> check_deadline()  # no deadline armed: a no-op
    >>> with deadline_scope(Deadline.after(60.0)):
    ...     check_deadline()  # budget left: a no-op too
    >>> with deadline_scope(Deadline(expires_at=0.0)):  # already expired
    ...     try:
    ...         check_deadline()
    ...     except DeadlineExceededError:
    ...         print("expired")
    expired
"""

from repro.service.deadline import Deadline, check_deadline, deadline_scope
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    STATUSES,
    decode_frame,
    encode_frame,
)

__all__ = [
    "Deadline",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "STATUSES",
    "check_deadline",
    "deadline_scope",
    "decode_frame",
    "encode_frame",
]
