"""Fault injection, retry policy, and crash-safe execution for the runtime.

The resilience layer makes the runtime survive the failures a long benchmark
campaign actually hits — crashed workers, hung kernels, torn writes, corrupt
payloads — under one invariant: **failures may cost wall-clock, but never
change bytes**.  Recovery always reproduces the exact output of a fault-free
run, extending the determinism discipline (seed protocol, submission-order
merging) to the failure domain.

* :mod:`repro.resilience.faults` — deterministic fault-injection plans:
  seeded schedules of crashes / hangs / corruption / torn writes at named
  injection points, activated via ``REPRO_FAULTS`` or the CLI's ``--faults``;
* :mod:`repro.resilience.policy` — :class:`RetryPolicy`: bounded attempts,
  exponential backoff with deterministic jitter, per-task timeouts, circuit
  breaking (``REPRO_RETRY`` / ``--retry``);
* :mod:`repro.resilience.durability` — canonical checksums, atomic JSON
  writes, and per-writer stats journals (the store's crash-safety kit);
* :mod:`repro.resilience.degrade` — the degradation ladder (NumPy kernel →
  pure Python, parallel → serial, grid cell → outcome row) and its telemetry;
* :mod:`repro.resilience.chaos` — the chaos harness: run a workload grid
  under a seeded fault schedule and assert the result store is byte-identical
  to a clean serial run (``repro chaos``).

Example — a seeded plan decides faults deterministically::

    >>> plan = parse_fault_spec("seed=3,executor.submit:raise:0.5")
    >>> plan.decide("executor.submit", "T1", 0) == plan.decide(
    ...     "executor.submit", "T1", 0)
    True
    >>> parse_retry_spec("attempts=4,backoff=0.01").max_attempts
    4
"""

from repro.resilience.degrade import record_degradation
from repro.resilience.durability import (
    StatsJournal,
    atomic_write_json,
    canonical_checksum,
    canonical_json,
    entry_checksum,
    sum_journals,
)
from repro.resilience.faults import (
    FAULTS_ENV_VAR,
    FAULT_KINDS,
    FAULT_SITES,
    FaultPlan,
    FaultRule,
    active_plan,
    attempt_scope,
    current_attempt,
    fault_plan_active,
    faults_enabled,
    inject,
    install_plan,
    mark_worker_process,
    parse_fault_spec,
)
from repro.resilience.drain import DRAIN_SIGNALS, drain_on_signal
from repro.resilience.policy import (
    DEFAULT_POLICY,
    RETRY_ENV_VAR,
    CircuitBreaker,
    RetryPolicy,
    backoff_delay,
    parse_retry_spec,
    policy_from_env,
    retry_call,
)

from repro.resilience.chaos import ChaosReport, run_chaos  # isort: skip  (imports runtime)

__all__ = [
    "CircuitBreaker",
    "ChaosReport",
    "DEFAULT_POLICY",
    "DRAIN_SIGNALS",
    "FAULTS_ENV_VAR",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "RETRY_ENV_VAR",
    "RetryPolicy",
    "StatsJournal",
    "active_plan",
    "atomic_write_json",
    "attempt_scope",
    "backoff_delay",
    "canonical_checksum",
    "canonical_json",
    "current_attempt",
    "drain_on_signal",
    "entry_checksum",
    "fault_plan_active",
    "faults_enabled",
    "inject",
    "install_plan",
    "mark_worker_process",
    "parse_fault_spec",
    "parse_retry_spec",
    "policy_from_env",
    "record_degradation",
    "retry_call",
    "run_chaos",
    "sum_journals",
]
