"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError` so callers can
catch library errors without masking programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""

    def __reduce__(self):
        # A task's error crosses a worker's pipe to be re-raised in the parent;
        # a subclass's __init__ takes other arguments than the ``args`` message.
        return _rebuild_error, (type(self), self.args, self.__dict__)


def _rebuild_error(cls: type, args: tuple, state: dict) -> ReproError:
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


class InfeasibleInstanceError(ReproError):
    """Raised when a set cover instance has no feasible cover."""


class SpaceBudgetExceededError(ReproError):
    """Raised when a streaming algorithm exceeds its declared space budget.

    Mirrors Remark 3.9 in the paper: the algorithm may be terminated as soon
    as it attempts to use more memory than its analysis allows.
    """

    def __init__(self, used: int, budget: int) -> None:
        super().__init__(f"space budget exceeded: used {used} words, budget {budget}")
        self.used = used
        self.budget = budget


class TransientTaskError(ReproError):
    """Base class for failures that are safe to retry.

    A transient failure means the *attempt* was lost, not that the task is
    wrong: re-executing the same task with the same inputs is expected to
    succeed and — because every task is a pure function of its inputs —
    produces a byte-identical payload.  The retry machinery in
    :mod:`repro.resilience.policy` retries exactly this hierarchy and lets
    every other exception propagate unchanged.
    """


class InjectedFaultError(TransientTaskError):
    """Raised by the fault-injection framework at an armed injection point."""

    def __init__(self, site: str, key: str, kind: str = "raise", attempt: int = 0) -> None:
        super().__init__(
            f"injected fault at {site} (key={key!r}, kind={kind}, attempt={attempt})"
        )
        self.site = site
        self.key = key
        self.kind = kind
        self.attempt = attempt


class PayloadIntegrityError(TransientTaskError):
    """Raised when a task payload fails its end-to-end checksum.

    Payloads crossing the worker boundary under fault injection carry a
    checksum of their canonical JSON; a mismatch means the bytes were
    corrupted in flight and the task must be recomputed, never merged.
    """


class SharedSegmentLostError(TransientTaskError):
    """Raised when a shared-memory segment attach finds the segment gone.

    An attach racing the publisher's ``close``/``unlink`` (or a publisher
    that died and was resurrected under a new segment name) is a lost
    *attempt*, not a wrong answer: the attach never mutates anything, so
    re-resolving the handle and attaching again is always safe.  Being part
    of the :class:`TransientTaskError` hierarchy makes the ambient retry
    policy handle exactly that.
    """

    def __init__(self, segment: str) -> None:
        super().__init__(f"shared-memory segment {segment!r} is gone (unlinked?)")
        self.segment = segment


class InstanceSourceLostError(TransientTaskError):
    """Raised when attaching an instance source finds its backing gone.

    The file-backed analogue of :class:`SharedSegmentLostError`: an mmap
    container that disappeared between descriptor creation and attach (NFS
    lag, a publisher cleaning up early, a torn re-export) is a lost
    *attempt* — the attach never mutates anything, so re-resolving the
    descriptor and attaching again is always safe under the ambient retry
    policy.
    """

    def __init__(self, location: str, detail: str = "is gone") -> None:
        super().__init__(f"instance source {location!r} {detail}")
        self.location = location


class InstanceIntegrityError(ReproError, ValueError):
    """Raised when an instance buffer does not hash to the digest it claims.

    Every path by which a packed buffer enters a process (an mmap container
    open, a shared-memory attach, a heap descriptor reopened) hashes the
    bytes once and compares them with the header's or the descriptor's
    digest.  A mismatch means the bytes are not the instance that digest
    names: fingerprints, store keys and per-worker derived data would all
    attribute another instance's answers to them.  Deliberately *not*
    transient — the same bytes fail the same way on every attempt, so the
    retry machinery lets it propagate — and a :class:`ValueError`, so the
    callers that already refuse a malformed container refuse this one too.
    """

    def __init__(self, location: str, expected: str, actual: str) -> None:
        super().__init__(
            f"instance {location!r} failed its integrity check: its bytes hash "
            f"to {actual[:16]}..., not to its recorded digest {str(expected)[:16]}..."
        )
        self.location = location
        self.expected = expected
        self.actual = actual


class DeadlineExceededError(ReproError):
    """Raised by a cooperative cancellation check once a deadline has passed.

    Deliberately *not* transient: re-running the same computation against an
    already-expired deadline fails again immediately, so the retry machinery
    must let it propagate to whoever owns the deadline (the service maps it
    to an explicit ``deadline`` response).  ``overrun`` is how many seconds
    past the deadline the check observed.
    """

    def __init__(self, overrun: float) -> None:
        super().__init__(f"deadline exceeded by {overrun:.4f}s")
        self.overrun = overrun


class CircuitOpenError(ReproError):
    """Raised when a circuit breaker refuses further attempts.

    The breaker opens after a configured number of *consecutive* failures,
    turning an endless retry storm into a fast, explicit failure.
    """

    def __init__(self, failures: int, threshold: int) -> None:
        super().__init__(
            f"circuit open after {failures} consecutive failures "
            f"(threshold {threshold})"
        )
        self.failures = failures
        self.threshold = threshold


class ProtocolError(ReproError):
    """Raised when a communication protocol is driven in an invalid way."""


class DistributionError(ReproError):
    """Raised when a hard-distribution sampler is given invalid parameters."""
