"""Retry policy: bounded attempts, deterministic backoff, circuit breaking.

A :class:`RetryPolicy` says how the runtime responds to *transient* failures
(the :class:`~repro.exceptions.TransientTaskError` hierarchy — injected
faults, lost workers, corrupted payloads): how many attempts a task gets, how
long to back off between them, when a hung task counts as lost
(``timeout``), and when to stop retrying structurally — the circuit breaker
after ``breaker_threshold`` consecutive failures, and serial degradation
after ``max_pool_respawns`` worker-loss generations.

Backoff is exponential with *deterministic* jitter: the jitter fraction for
attempt ``k`` is a uniform derived by hashing ``(seed, path, k)`` through
:func:`repro.utils.rng.derive_seed` — the same discipline as the fault
schedules — so two runs of the same schedule wait the same milliseconds
and a retry storm still de-synchronises across tasks (each task's seed gives
it a different jitter stream).  Retries cost wall-clock, never bytes.

Policies come from the ``REPRO_RETRY`` environment variable or the CLI's
``--retry`` flag; :func:`policy_from_env` resolves the ambient one.

Example — deterministic backoff and spec round-trip::

    >>> policy = parse_retry_spec("attempts=5,backoff=0.1,multiplier=2,jitter=0")
    >>> [round(backoff_delay(policy, a, seed=1, path=("T",)), 3) for a in (1, 2, 3)]
    [0.1, 0.2, 0.4]
    >>> backoff_delay(policy, 2, seed=1, path=("T",)) == backoff_delay(
    ...     policy, 2, seed=1, path=("T",))
    True
    >>> parse_retry_spec("attempts=2").max_attempts
    2
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence, Tuple, Type

from repro.exceptions import CircuitOpenError, TransientTaskError
from repro.telemetry import metrics
from repro.utils.rng import derive_seed

#: Environment variable carrying the retry spec into worker processes.
RETRY_ENV_VAR = "REPRO_RETRY"

#: 2^64, the denominator turning a derived seed into a uniform in [0, 1).
_SEED_SPACE = float(1 << 64)


def spec_number(value: float) -> str:
    """``value`` as spec text that parses back to exactly ``value``.

    The short ``:g`` form where it is exact (``30``, ``0.2``), else ``repr``:
    ``:g`` keeps six significant digits, so ``1000001.0`` would come back as
    ``1000000.0``.
    """
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


@dataclass(frozen=True)
class RetryPolicy:
    """How the runtime responds to transient failures.

    ``max_attempts`` counts total tries per task (1 = no retry).  Backoff for
    attempt ``k >= 1`` is ``min(max_backoff, base_backoff * multiplier**(k-1))``
    scaled by a deterministic jitter in ``[1 - jitter, 1]``.  ``timeout`` is
    the per-task wall-clock budget the executor enforces on worker chunks
    (``None`` disables timeout detection).  ``breaker_threshold`` consecutive
    failures open the circuit; ``max_pool_respawns`` bounds the attempt
    generations at which the executor loses a worker (the workers the
    service replaces) before either degrades to serial execution.
    """

    max_attempts: int = 3
    base_backoff: float = 0.02
    multiplier: float = 2.0
    max_backoff: float = 1.0
    jitter: float = 0.5
    timeout: Optional[float] = None
    breaker_threshold: int = 5
    max_pool_respawns: int = 3

    def __post_init__(self) -> None:
        # NaN fails every comparison, so each float check is written to
        # refuse it; ``time.sleep`` and the executor's waits cannot take an
        # infinite duration either.
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not all(0 <= d < math.inf for d in (self.base_backoff, self.max_backoff)):
            raise ValueError("backoff durations must be finite and non-negative")
        if not self.multiplier >= 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be positive and finite, got {self.timeout}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.max_pool_respawns < 0:
            raise ValueError(
                f"max_pool_respawns must be >= 0, got {self.max_pool_respawns}"
            )

    def spec(self) -> str:
        """Render back to the ``REPRO_RETRY`` spec grammar (round-trips)."""
        clauses = [
            f"attempts={self.max_attempts}",
            f"backoff={spec_number(self.base_backoff)}",
            f"multiplier={spec_number(self.multiplier)}",
            f"max_backoff={spec_number(self.max_backoff)}",
            f"jitter={spec_number(self.jitter)}",
            f"breaker={self.breaker_threshold}",
            f"respawns={self.max_pool_respawns}",
        ]
        if self.timeout is not None:
            clauses.append(f"timeout={spec_number(self.timeout)}")
        return ",".join(clauses)


#: The policy used when neither the environment nor the caller supplies one.
DEFAULT_POLICY = RetryPolicy()

_SPEC_FIELDS = {
    "attempts": ("max_attempts", int),
    "backoff": ("base_backoff", float),
    "multiplier": ("multiplier", float),
    "max_backoff": ("max_backoff", float),
    "jitter": ("jitter", float),
    "timeout": ("timeout", float),
    "breaker": ("breaker_threshold", int),
    "respawns": ("max_pool_respawns", int),
}


def parse_retry_spec(spec: str, base: Optional[RetryPolicy] = None) -> RetryPolicy:
    """Parse ``name=value`` clauses into a policy (unset fields keep defaults).

    Accepted names: ``attempts``, ``backoff``, ``multiplier``, ``max_backoff``,
    ``jitter``, ``timeout``, ``breaker``, ``respawns``.  ``timeout=0`` and
    ``timeout=none`` both disable the timeout.
    """
    policy = base or DEFAULT_POLICY
    updates = {}
    for raw in spec.split(","):
        clause = raw.strip()
        if not clause:
            continue
        name, sep, value = clause.partition("=")
        name = name.strip().lower()
        if not sep or name not in _SPEC_FIELDS:
            raise ValueError(
                f"bad retry clause {clause!r}; expected one of "
                f"{sorted(_SPEC_FIELDS)} as name=value"
            )
        field_name, convert = _SPEC_FIELDS[name]
        if field_name == "timeout" and value.strip().lower() in ("none", "0", "off"):
            updates[field_name] = None
            continue
        updates[field_name] = convert(value)
    return replace(policy, **updates) if updates else policy


def policy_from_env(base: Optional[RetryPolicy] = None) -> RetryPolicy:
    """The ambient policy: ``REPRO_RETRY`` applied over ``base``/defaults."""
    spec = os.environ.get(RETRY_ENV_VAR, "").strip()
    if not spec:
        return base or DEFAULT_POLICY
    return parse_retry_spec(spec, base=base)


def backoff_delay(
    policy: RetryPolicy,
    attempt: int,
    seed: int = 0,
    path: Sequence[Any] = (),
) -> float:
    """Seconds to wait before retry ``attempt`` (attempt 1 = first retry).

    Exponential in ``attempt`` with deterministic jitter: the uniform comes
    from hashing ``(seed, "backoff", *path, attempt)``, so the schedule is a
    pure function of the task identity and reproduces exactly across runs
    while still decorrelating concurrent tasks.
    """
    if attempt < 1:
        return 0.0
    raw = policy.base_backoff * (policy.multiplier ** (attempt - 1))
    delay = min(policy.max_backoff, raw)
    if policy.jitter > 0.0 and delay > 0.0:
        uniform = derive_seed(seed, "backoff", *[str(p) for p in path], attempt) / _SEED_SPACE
        delay *= 1.0 - policy.jitter * uniform
    return delay


class CircuitBreaker:
    """Trips open after N *consecutive* failures; any success resets it.

    The breaker turns a persistent failure (a store on a dead disk, a pool
    that can never spawn) into one fast :class:`CircuitOpenError` instead of
    an unbounded retry storm.  It is deliberately state-only — no wall-clock
    half-open probation — because the runtime's callers decide recovery
    structurally (respawn, degrade to serial) rather than by waiting.
    """

    def __init__(self, threshold: int = 5) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.consecutive_failures = 0
        self.total_failures = 0

    @property
    def open(self) -> bool:
        """Whether the breaker currently refuses attempts."""
        return self.consecutive_failures >= self.threshold

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` when the breaker is open."""
        if self.open:
            metrics.add("retry.breaker_rejections")
            raise CircuitOpenError(self.consecutive_failures, self.threshold)

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        self.total_failures += 1
        if self.open:
            metrics.add("retry.breaker_opens")

    def reset(self) -> None:
        """Manually close the breaker (structural recovery succeeded)."""
        self.consecutive_failures = 0


def retry_call(
    func: Callable[[int], Any],
    policy: Optional[RetryPolicy] = None,
    seed: int = 0,
    path: Sequence[Any] = (),
    retryable: Tuple[Type[BaseException], ...] = (TransientTaskError,),
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Call ``func(attempt)`` under the policy's retry schedule.

    ``func`` receives the attempt number (0-based) so fault-injection
    decisions and telemetry can key off it.  Only ``retryable`` exceptions
    are retried — everything else propagates unchanged on the first raise,
    preserving the executor's contract that a task's own bug is never
    silently re-run.  The final attempt's transient failure propagates too.
    """
    active = policy or DEFAULT_POLICY
    attempt = 0
    while True:
        try:
            return func(attempt)
        except retryable:
            attempt += 1
            if attempt >= active.max_attempts:
                raise
            metrics.add("retry.attempts")
            delay = backoff_delay(active, attempt, seed=seed, path=path)
            if delay > 0.0:
                metrics.observe("retry.backoff_s", delay)
                sleep(delay)


__all__ = [
    "CircuitBreaker",
    "DEFAULT_POLICY",
    "RETRY_ENV_VAR",
    "RetryPolicy",
    "backoff_delay",
    "parse_retry_spec",
    "policy_from_env",
    "retry_call",
]
