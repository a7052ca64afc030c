"""Graceful degradation: fall down the ladder, never change the bytes.

Every rung trades performance for survival while preserving output
equivalence — each fallback is a mechanism the parity suites already prove
byte-identical to the preferred path:

1. **Kernel backend** — a NumPy kernel that fails to build falls back to the
   pure-Python :class:`~repro.kernels.pyint.PyIntKernel` (the two backends
   are bit-identical by the hypothesis parity suites);
2. **Parallel execution** — repeated worker loss degrades the executor
   to in-process serial execution (submission-order merging makes serial and
   sharded output byte-identical by construction);
3. **Workload outcomes** — a cell that exceeds its space/pass budget or draws
   an uncoverable hard instance records an outcome row instead of aborting
   the surrounding grid (PR 4's outcome-row discipline).

This module is the ladder's bookkeeping: :func:`record_degradation` stamps a
telemetry counter and event per rung so a chaos run's report shows exactly
which fallbacks fired, and :data:`DEGRADATION_LADDER` names the rungs for
docs and tests.

Example — degradations are counted under ``degrade.<rung>``::

    >>> from repro.telemetry import TelemetrySession
    >>> with TelemetrySession(label="doc") as session:
    ...     record_degradation("kernel_backend", reason="numpy import failed")
    >>> session.registry.snapshot()["counters"]["degrade.kernel_backend"]
    1
"""

from __future__ import annotations

from typing import Any

from repro.telemetry import metrics
from repro.telemetry.spans import event

#: The rungs of the degradation ladder, in preference order.
DEGRADATION_LADDER = (
    "kernel_backend",  # numpy kernel -> pure-python kernel
    "serial_execution",  # process pool -> in-process serial
    "outcome_row",  # grid cell failure -> recorded outcome, grid continues
)


def record_degradation(rung: str, reason: str = "", **attrs: Any) -> None:
    """Count and trace one degradation (no-op cost when telemetry is off).

    ``rung`` should be one of :data:`DEGRADATION_LADDER`; unknown rungs are
    still recorded (forward compatibility for downstream ladders) but tests
    pin the canonical names.
    """
    metrics.add("degrade.total")
    metrics.add(f"degrade.{rung}")
    event("degrade", rung=rung, reason=reason, **attrs)


__all__ = ["DEGRADATION_LADDER", "record_degradation"]
