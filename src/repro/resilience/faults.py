"""Deterministic fault injection for the runtime stack.

A :class:`FaultPlan` is a seeded schedule of failures: each :class:`FaultRule`
names an *injection point* (``site``), a failure ``kind``, a firing ``rate``,
and how many attempts it keeps firing for (``until``).  Whether a rule fires
is a pure function of ``(plan seed, site, kind, key, attempt)`` — decided by
hashing through :func:`repro.utils.rng.derive_seed`, never by drawing from a
shared stream — so a fault schedule is reproducible across processes, worker
counts, and execution orders, exactly like the runtime's seed protocol.

Faults may cost retries and wall-clock, but they must never change bytes: a
rule's default ``until=1`` means it fires only on attempt 0, so the retry
machinery in :mod:`repro.resilience.policy` always clears it, and the final
payloads/stores are byte-identical to a fault-free run (the chaos harness in
:mod:`repro.resilience.chaos` asserts this).

Injection points and the kinds they honour:

=====================  ================================================
``executor.submit``    ``crash`` (worker dies), ``hang`` (sleep past the
                       timeout), ``corrupt`` (payload bytes flip in
                       flight), ``raise`` (transient exception)
``store.put``          ``torn`` (entry file truncated mid-write)
``transport.attach``   ``raise`` (shared-memory attach fails)
``engine.pass``        ``raise`` (failure mid-streaming-pass)
``kernel.make``        ``raise`` (accelerated backend fails to build)
``service.request``    ``crash`` (service worker dies mid-request),
                       ``raise`` (transient per-request failure)
=====================  ================================================

Plans activate via the ``REPRO_FAULTS`` environment variable (the CLI's
``--faults`` writes it so worker processes inherit the schedule) or
programmatically with :func:`install_plan` / :func:`fault_plan_active`.

Example — parse a spec and make deterministic decisions::

    >>> plan = parse_fault_spec("seed=7,executor.submit:crash:0.5")
    >>> plan.rules[0].site, plan.rules[0].kind, plan.rules[0].rate
    ('executor.submit', 'crash', 0.5)
    >>> decisions = [plan.decide("executor.submit", f"T{i}", 0) for i in range(8)]
    >>> decisions == [plan.decide("executor.submit", f"T{i}", 0) for i in range(8)]
    True
    >>> plan.decide("store.put", "T0", 0) is None  # no rule for that site
    True
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.exceptions import InjectedFaultError
from repro.resilience.policy import spec_number
from repro.telemetry import metrics
from repro.telemetry.spans import event
from repro.utils.rng import derive_seed

#: Environment variable carrying the fault spec into worker processes.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: The named injection points threaded through the stack.
FAULT_SITES = (
    "executor.submit",
    "store.put",
    "transport.attach",
    "engine.pass",
    "kernel.make",
    "service.request",
)

#: The failure kinds a rule may request.
FAULT_KINDS = ("crash", "hang", "corrupt", "raise", "torn")

#: 2^64, the denominator turning a derived seed into a uniform in [0, 1).
_SEED_SPACE = float(1 << 64)


@dataclass(frozen=True)
class FaultRule:
    """One line of a fault schedule.

    ``rate`` is the per-``(key, attempt)`` firing probability; ``until``
    bounds the attempts the rule may fire on (attempts ``0 .. until-1``), so
    the default of 1 guarantees any single retry clears the fault and a chaos
    run always terminates.
    """

    site: str
    kind: str
    rate: float = 1.0
    until: int = 1

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; expected one of {FAULT_SITES}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.until < 1:
            raise ValueError(f"until must be >= 1, got {self.until}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, order-independent schedule of fault decisions."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    #: How long a ``hang`` fault sleeps before failing (seconds).  Tests dial
    #: this down next to a short executor timeout.
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        # ``time.sleep`` takes neither NaN nor infinity nor a negative span.
        if not 0.0 <= self.hang_s < math.inf:
            raise ValueError(
                f"hang must be a finite number of seconds >= 0, got {self.hang_s}"
            )

    def decide(self, site: str, key: str, attempt: int = 0) -> Optional[str]:
        """The kind that fires at ``(site, key, attempt)``, or ``None``.

        Pure: hashing ``(seed, site, kind, key, attempt)`` through
        :func:`derive_seed` gives an independent uniform per decision, so the
        answer never depends on call order, process, or how many other
        decisions were made first.  The first matching rule in spec order
        wins.
        """
        for rule in self.rules:
            if rule.site != site or attempt >= rule.until:
                continue
            if rule.rate >= 1.0:
                return rule.kind
            draw = derive_seed(self.seed, site, rule.kind, key, attempt) / _SEED_SPACE
            if draw < rule.rate:
                return rule.kind
        return None

    def spec(self) -> str:
        """Render back to the ``REPRO_FAULTS`` spec grammar (round-trips)."""
        clauses = [f"seed={self.seed}", f"hang={spec_number(self.hang_s)}"]
        clauses += [
            f"{rule.site}:{rule.kind}:{spec_number(rule.rate)}:{rule.until}"
            for rule in self.rules
        ]
        return ",".join(clauses)


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`.

    Grammar: comma-separated clauses.  ``seed=N`` and ``hang=SECONDS`` set
    plan options; every other clause is a rule ``site:kind[:rate[:until]]``
    (rate defaults to 1.0, until to 1).  Example::

        seed=7,executor.submit:crash:0.2,store.put:torn:0.5:2
    """
    seed = 0
    hang_s = 30.0
    rules: List[FaultRule] = []
    for raw in spec.split(","):
        clause = raw.strip()
        if not clause:
            continue
        if "=" in clause and ":" not in clause:
            name, _, value = clause.partition("=")
            name = name.strip().lower()
            if name == "seed":
                seed = int(value)
            elif name == "hang":
                hang_s = float(value)
            else:
                raise ValueError(f"unknown fault-plan option {name!r} in {spec!r}")
            continue
        parts = clause.split(":")
        if len(parts) < 2 or len(parts) > 4:
            raise ValueError(
                f"bad fault clause {clause!r}; expected site:kind[:rate[:until]]"
            )
        rate = float(parts[2]) if len(parts) > 2 else 1.0
        until = int(parts[3]) if len(parts) > 3 else 1
        rules.append(FaultRule(site=parts[0], kind=parts[1], rate=rate, until=until))
    return FaultPlan(seed=seed, rules=tuple(rules), hang_s=hang_s)


# ---------------------------------------------------------------------------
# Activation.  The active plan is process-global (faults cross process
# boundaries via the environment, and a worker must see the plan no matter
# which thread/context runs the task).  ``None`` means "resolve from the
# environment on next use"; _NO_PLAN means "resolved: faults off".
# ---------------------------------------------------------------------------

_NO_PLAN = FaultPlan(rules=())
_active_plan: Optional[FaultPlan] = None
_resolved_spec: Optional[str] = None

#: Set to True inside pool workers (:mod:`repro.resilience.workers`), so
#: ``crash`` faults know :func:`os._exit` kills a disposable worker, not the
#: user's interpreter.
_IN_WORKER = False

#: Attempt number ambient to the current task execution; injection sites deep
#: in the stack (engine.pass, kernel.make) read it so a retried task attempt
#: re-evaluates its fault decisions at the new attempt.
_ATTEMPT: "ContextVar[int]" = ContextVar("repro_fault_attempt", default=0)

#: Key of the task whose attempt is running (``None`` where no task runs,
#: as in the service); see :func:`task_scoped`.
_TASK: "ContextVar[Optional[str]]" = ContextVar("repro_fault_task", default=None)


def mark_worker_process() -> None:
    """Record that this process is a disposable pool worker (see ``crash``)."""
    global _IN_WORKER
    _IN_WORKER = True


def current_attempt() -> int:
    """The ambient task attempt number (0 outside any retry scope)."""
    return _ATTEMPT.get()


@contextmanager
def attempt_scope(attempt: int, task: Optional[str] = None) -> Iterator[None]:
    """Make ``attempt``, and the running ``task``'s key, ambient in the block."""
    attempt_token, task_token = _ATTEMPT.set(attempt), _TASK.set(task)
    try:
        yield
    finally:
        _TASK.reset(task_token)
        _ATTEMPT.reset(attempt_token)


def task_scoped(key: str) -> str:
    """``key`` prefixed with the ambient task's key, when a task is running.

    A site that every task reaches under the same keys (a pass number)
    draws its decisions per task this way, not once for all of them.
    """
    task = _TASK.get()
    return key if task is None else f"{task}/{key}"


def install_plan(plan: Optional[FaultPlan]):
    """Install ``plan`` as the active fault plan (``None`` disables faults).

    Returns a zero-argument restore callable; prefer the
    :func:`fault_plan_active` context manager in tests.
    """
    global _active_plan, _resolved_spec
    previous_plan, previous_spec = _active_plan, _resolved_spec
    _active_plan = plan if plan is not None else _NO_PLAN
    # "<installed>" marks an explicit installation, which always wins over the
    # environment — install_plan(None) force-disables faults even when
    # REPRO_FAULTS is set (the chaos harness's clean-run guarantee).
    _resolved_spec = "<installed>"

    def restore() -> None:
        global _active_plan, _resolved_spec
        _active_plan = previous_plan
        _resolved_spec = previous_spec

    return restore


@contextmanager
def fault_plan_active(plan: Optional[FaultPlan]) -> Iterator[None]:
    """Context manager form of :func:`install_plan` (restores on exit)."""
    restore = install_plan(plan)
    try:
        yield
    finally:
        restore()


def active_plan() -> Optional[FaultPlan]:
    """The plan injection sites consult, or ``None`` when faults are off.

    Resolution is environment-driven and cached per spec string: the first
    call (and any call after ``REPRO_FAULTS`` changes) parses the variable;
    afterwards the check is one global load and a string compare, cheap
    enough for per-pass injection sites.  A plan installed via
    :func:`install_plan` takes precedence over the environment.
    """
    global _active_plan, _resolved_spec
    if _resolved_spec == "<installed>":
        return None if _active_plan is _NO_PLAN or not _active_plan.rules else _active_plan
    spec = os.environ.get(FAULTS_ENV_VAR, "").strip()
    if spec != (_resolved_spec or ""):
        _resolved_spec = spec
        _active_plan = parse_fault_spec(spec) if spec else _NO_PLAN
    plan = _active_plan
    if plan is None or not plan.rules:
        return None
    return plan


def faults_enabled() -> bool:
    """Whether any fault plan is currently active (sites will be consulted)."""
    return active_plan() is not None


def inject(site: str, key: str, attempt: Optional[int] = None) -> Optional[str]:
    """Evaluate the injection point ``site`` for ``key``; act on the result.

    No-op (one global/env check) when no plan is active.  When a rule fires:

    * ``raise`` — raises :class:`InjectedFaultError` (a transient, retryable
      failure);
    * ``crash`` — calls ``os._exit`` in pool workers (the parent sees EOF on
      that worker's pipe); outside a worker it degrades to ``raise`` so
      serial runs stay recoverable;
    * ``hang`` — sleeps ``plan.hang_s`` seconds, then raises (a hung worker
      either trips the executor timeout or eventually fails transiently);
    * ``corrupt`` / ``torn`` — returned to the caller, which must apply the
      data corruption itself (payload mangling, torn entry write).

    Every firing is counted (``fault.injected`` plus a per-site/kind counter)
    and traced as a ``fault.inject`` event when telemetry is capturing.
    """
    plan = active_plan()
    if plan is None:
        return None
    if attempt is None:
        attempt = _ATTEMPT.get()
    kind = plan.decide(site, key, attempt)
    if kind is None:
        return None
    metrics.add("fault.injected")
    metrics.add(f"fault.injected.{site}.{kind}")
    event("fault.inject", site=site, key=key, kind=kind, attempt=attempt)
    if kind == "crash":
        if _IN_WORKER:
            os._exit(17)  # hard death: no atexit, no cleanup — a real crash
        raise InjectedFaultError(site, key, kind="crash", attempt=attempt)
    if kind == "hang":
        time.sleep(plan.hang_s)
        raise InjectedFaultError(site, key, kind="hang", attempt=attempt)
    if kind == "raise":
        raise InjectedFaultError(site, key, kind="raise", attempt=attempt)
    return kind  # corrupt / torn: the caller applies the damage


__all__ = [
    "FAULTS_ENV_VAR",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "attempt_scope",
    "current_attempt",
    "fault_plan_active",
    "faults_enabled",
    "inject",
    "install_plan",
    "mark_worker_process",
    "parse_fault_spec",
    "task_scoped",
]
