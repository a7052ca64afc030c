"""Chaos harness: run a workload under faults, assert byte-identical output.

The harness is the resilience layer's proof obligation.  It runs the same
task list twice against two fresh result stores:

1. **clean** — serial, faults force-disabled (:func:`install_plan` with
   ``None``), the reference output;
2. **chaos** — sharded across workers under a seeded
   :class:`~repro.resilience.faults.FaultPlan` (exported through
   ``REPRO_FAULTS`` so pool workers inherit the schedule), with the ambient
   retry policy doing the recovering;

then diffs the stores entry by entry: same fingerprints, and for each
fingerprint the canonical JSON of the stored ``result`` payload must be
byte-identical.  Failures may cost retries, respawns, and quarantined files —
they must never change bytes.

``repro chaos`` is the CLI face of :func:`run_chaos`;
``benchmarks/bench_resilience.py`` reuses it for the CI chaos gate.

Example — a tiny grid survives a crashy schedule with parity::

    >>> report = run_chaos(["E1"], faults="seed=3,executor.submit:raise:0.5",
    ...                    workers=1)
    >>> report.parity
    True
    >>> report.tasks >= 1
    True
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.resilience.durability import canonical_json
from repro.resilience.faults import (
    FAULTS_ENV_VAR,
    FaultPlan,
    install_plan,
    parse_fault_spec,
)
from repro.resilience.policy import RETRY_ENV_VAR, RetryPolicy
from repro.utils.env import env_overrides

#: The fault schedule ``repro chaos`` applies when ``--faults`` is not given:
#: a 20% worker-crash rate plus torn store writes and transient mid-pass
#: failures — every recovery path in one run, still terminating (until=1).
DEFAULT_CHAOS_SPEC = (
    "seed=1,executor.submit:crash:0.2,executor.submit:raise:0.2,"
    "store.put:torn:0.3,engine.pass:raise:0.1"
)


@dataclass
class ChaosReport:
    """The verdict of one chaos run: parity plus the recovery bookkeeping."""

    scenarios: Tuple[str, ...]
    tasks: int
    workers: int
    fault_spec: str
    parity: bool
    mismatched: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    extra: List[str] = field(default_factory=list)
    clean_stats: Dict[str, int] = field(default_factory=dict)
    chaos_stats: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def quarantined(self) -> int:
        """How many corrupt entries the chaos store quarantined."""
        return self.chaos_stats.get("quarantined", 0)

    def render(self) -> str:
        """Human-readable summary (what ``repro chaos`` prints)."""
        lines = [
            f"chaos: {len(self.scenarios)} scenario(s), {self.tasks} task(s), "
            f"workers={self.workers}",
            f"faults: {self.fault_spec}",
            f"parity: {'OK — chaos store byte-identical to clean serial run' if self.parity else 'FAILED'}",
        ]
        if not self.parity:
            for name, keys in (
                ("mismatched", self.mismatched),
                ("missing", self.missing),
                ("extra", self.extra),
            ):
                if keys:
                    lines.append(f"  {name}: {', '.join(sorted(keys)[:8])}")
        lines.append(
            "recovery: "
            f"faults_injected={self.counters.get('fault.injected', 0)} "
            f"retries={self.counters.get('retry.attempts', 0)} "
            f"respawns={self.counters.get('executor.pool_respawns', 0)} "
            f"quarantined={self.quarantined} "
            f"degradations={self.counters.get('degrade.total', 0)}"
        )
        return "\n".join(lines)


def _store_payloads(root: Path) -> Dict[str, str]:
    """Map fingerprint → canonical JSON of the stored ``result`` payload.

    Only the result payload is compared: telemetry blocks and checksums are
    siblings that legitimately differ between capturing and non-capturing
    runs; the parity contract is about the *science* bytes.
    """
    payloads: Dict[str, str] = {}
    for path in sorted(Path(root).glob("*/*.json")):
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(entry, dict) and "fingerprint" in entry:
            payloads[entry["fingerprint"]] = canonical_json(entry.get("result"))
    return payloads


def run_chaos(
    scenarios: Sequence[str],
    faults: Union[str, FaultPlan, None] = None,
    seed: Optional[int] = None,
    workers: int = 4,
    retry: Optional[Union[str, RetryPolicy]] = None,
    root: Optional[Union[str, Path]] = None,
    keep: bool = False,
) -> ChaosReport:
    """Run ``scenarios`` clean and under faults; diff the result stores.

    Each name expands through
    :func:`~repro.runtime.scenarios.resolve_scenarios`, as in ``repro run``.

    ``faults`` is a ``REPRO_FAULTS`` spec string or a :class:`FaultPlan`
    (default: :data:`DEFAULT_CHAOS_SPEC`); ``retry`` optionally overrides the
    ambient retry policy the same way.  Both are exported through the
    environment for the chaos leg so pool workers inherit them, and fully
    restored afterwards.  ``root`` keeps the two stores somewhere inspectable
    (``keep=True`` skips cleanup of a temporary root).
    """
    # Imported lazily: repro.runtime imports this package at module load.
    from repro.runtime import ResultStore, TaskExecutor, resolve_scenarios, tasks_from_scenario
    from repro.telemetry import TelemetrySession

    plan = faults if isinstance(faults, FaultPlan) else parse_fault_spec(
        faults if faults is not None else DEFAULT_CHAOS_SPEC
    )
    retry_spec = retry.spec() if isinstance(retry, RetryPolicy) else retry

    tasks = [
        task
        for name in scenarios
        for spec in resolve_scenarios(name)
        for task in tasks_from_scenario(spec, seed_override=seed)
    ]
    base = Path(root) if root is not None else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    owns_root = root is None and not keep
    clean_root = base / "clean"
    chaos_root = base / "chaos"
    # Clean reference leg: serial, faults force-disabled even if the
    # surrounding environment carries REPRO_FAULTS.
    restore_plan = install_plan(None)
    try:
        clean_store = ResultStore(clean_root)
        TaskExecutor(workers=1, store=clean_store).run(list(tasks))
    finally:
        restore_plan()

    # Chaos leg: plan and retry policy travel via the environment so
    # pool workers inherit them; the parent resolves the same env vars.
    overrides = {FAULTS_ENV_VAR: plan.spec()}
    if retry_spec is not None:
        overrides[RETRY_ENV_VAR] = retry_spec
    with env_overrides(overrides):
        chaos_store = ResultStore(chaos_root)
        with TelemetrySession(label="chaos") as session:
            TaskExecutor(workers=workers, store=chaos_store).run(list(tasks))
    counters = {
        name: int(value)
        for name, value in session.registry.snapshot().get("counters", {}).items()
        if name.split(".")[0] in ("fault", "retry", "degrade", "executor", "store")
    }

    clean_payloads = _store_payloads(clean_root)
    chaos_payloads = _store_payloads(chaos_root)
    mismatched = sorted(
        fp
        for fp in clean_payloads.keys() & chaos_payloads.keys()
        if clean_payloads[fp] != chaos_payloads[fp]
    )
    missing = sorted(clean_payloads.keys() - chaos_payloads.keys())
    extra = sorted(chaos_payloads.keys() - clean_payloads.keys())
    report = ChaosReport(
        scenarios=tuple(scenarios),
        tasks=len(tasks),
        workers=workers,
        fault_spec=plan.spec(),
        parity=not (mismatched or missing or extra),
        mismatched=mismatched,
        missing=missing,
        extra=extra,
        clean_stats=clean_store.stats(),
        chaos_stats=chaos_store.stats(),
        counters=counters,
    )
    if owns_root:
        shutil.rmtree(base, ignore_errors=True)
    return report


__all__ = ["ChaosReport", "DEFAULT_CHAOS_SPEC", "run_chaos"]
