"""Cooperative deadline propagation: an ambient, zero-cost cancellation token.

A :class:`Deadline` is a monotonic-clock expiry instant.  The service front
end arms one per request with :func:`deadline_scope`; deep compute layers —
:class:`~repro.streaming.engine.MultiPassEngine` and the pass grants in
:class:`~repro.streaming.stream.SetStream` — call :func:`check_deadline` at
their natural cancellation points and raise
:class:`~repro.exceptions.DeadlineExceededError` once the budget is gone.

The discipline mirrors telemetry's off-switch: when no deadline is armed the
check is one context-variable load and a ``None`` test, so batch sweeps pay
nothing.  Contextvars also give the right asyncio semantics for free — each
request task carries its own deadline without any threading of handles.

Checks are *cooperative* and only placed at pass boundaries: a request is
never torn down mid-kernel-call (which could leave shared state inconsistent)
but also never survives a whole extra pass once its budget is spent — the
serving analogue of the streaming model's "bounded resources per pass".

Example — an expired deadline trips the check, an absent one is free::

    >>> from repro.exceptions import DeadlineExceededError
    >>> check_deadline()  # no deadline armed: a no-op
    >>> with deadline_scope(Deadline.after(3600.0)):
    ...     check_deadline()  # plenty of budget left
    >>> with deadline_scope(Deadline(expires_at=0.0)):  # already in the past
    ...     try:
    ...         check_deadline()
    ...     except DeadlineExceededError as exc:
    ...         print(exc.overrun > 0.0)
    True
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.exceptions import DeadlineExceededError

#: The monotonic clock deadlines are measured against (same as telemetry's).
clock = time.perf_counter

#: The ambient deadline; ``None`` (the default) means "no deadline armed"
#: and keeps every check a single context-variable load.
_DEADLINE: "ContextVar[Optional[Deadline]]" = ContextVar(
    "repro_service_deadline", default=None
)


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry instant on the monotonic clock.

    Deadlines never cross process boundaries as absolute instants — the two
    processes' monotonic clocks are unrelated — so the service ships the
    *remaining* budget (:meth:`remaining`) and the worker re-anchors it with
    :meth:`after`.
    """

    expires_at: float

    @classmethod
    def after(cls, budget_s: float) -> "Deadline":
        """A deadline ``budget_s`` seconds from now."""
        return cls(expires_at=clock() + budget_s)

    def remaining(self) -> float:
        """Seconds of budget left (negative once expired)."""
        return self.expires_at - clock()

    @property
    def expired(self) -> bool:
        return clock() >= self.expires_at


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[None]:
    """Make ``deadline`` ambient for the block (``None`` clears any outer one).

    Scopes nest: an inner scope with an *earlier* expiry tightens the budget;
    callers that want the effective minimum of nested deadlines should arm
    ``Deadline(min(inner, outer.expires_at))`` themselves — the scope is
    deliberately a plain set/reset so its cost stays trivial.
    """
    token = _DEADLINE.set(deadline)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_deadline() -> None:
    """Raise :class:`DeadlineExceededError` if the ambient deadline passed.

    The cooperative cancellation point: one contextvar load when no deadline
    is armed, one clock read when one is.  Placed at streaming pass
    boundaries and service dispatch edges — cheap enough for both.
    """
    deadline = _DEADLINE.get()
    if deadline is None:
        return
    overrun = clock() - deadline.expires_at
    if overrun >= 0.0:
        raise DeadlineExceededError(overrun)


__all__ = [
    "Deadline",
    "check_deadline",
    "clock",
    "deadline_scope",
]
