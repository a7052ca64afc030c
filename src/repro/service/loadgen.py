"""Seeded closed-loop load generator for the solver service.

``repro loadgen`` drives ``clients`` concurrent connections, each sending
requests back-to-back (closed loop) drawn deterministically from a small
*population* of distinct requests — deterministically, because the whole
point is verification: the generator builds the served instance locally from
the same spec string, precomputes the expected payload for every population
entry via the same :func:`~repro.service.requests.compute_response` the
server uses, and checks every ``ok`` response against it.  ``wrong == 0`` is
the acceptance bar under crashes, sheds, and deadlines alike — degraded
answers must be *correct* answers.

Everything else a response can be is counted, never hidden: ``shed`` and
``deadline`` are the explicit overload outcomes admission control promises,
``transport_error`` means a connection died (the client reconnects and keeps
going).  Latency percentiles are reported over ``ok`` responses only.

Chaos-under-load is the same run with ``REPRO_FAULTS`` exported at the
server (e.g. ``service.request:crash:0.05``) — the generator needs no flag,
only the zero-wrong bar.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.service.client import AsyncServiceClient, ServiceUnavailableError
from repro.service.instances import DEFAULT_INSTANCE_SPEC, build_instance
from repro.service.requests import canonical_params, compute_response
from repro.utils.rng import derive_seed

#: The population of distinct requests the generator cycles through: a mix
#: of all three kinds, small enough to precompute expected answers for.
POPULATION: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("cover", {}),
    ("maxcover", {"k": 2}),
    ("maxcover", {"k": 4}),
    ("maxcover", {"k": 8}),
    ("estimate", {"alpha": 2, "seed": 0}),
    ("estimate", {"alpha": 2, "seed": 1}),
    ("estimate", {"alpha": 3, "seed": 0}),
)


@dataclass(frozen=True)
class LoadgenConfig:
    """One load scenario (fully determined by its fields — reruns match).

    ``duration_s``, when given, must be positive and finite: a run that
    could never end, or never send, is refused up front.
    """

    host: str = "127.0.0.1"
    port: int = 0
    clients: int = 16
    requests_per_client: int = 25
    duration_s: Optional[float] = None
    seed: int = 0
    instance_spec: str = DEFAULT_INSTANCE_SPEC
    deadline_s: Optional[float] = None
    verify: bool = True

    def __post_init__(self) -> None:
        if self.duration_s is not None and not 0 < self.duration_s < math.inf:
            raise ValueError(
                f"duration_s must be positive and finite, got {self.duration_s}"
            )


@dataclass
class LoadReport:
    """What a load run observed; :meth:`to_dict` is the BENCH payload."""

    requests: int = 0
    wrong: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list, repr=False)
    wall_s: float = 0.0
    clients: int = 0

    def record(self, status: str, latency_s: Optional[float] = None) -> None:
        self.requests += 1
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if status == "ok" and latency_s is not None:
            self.latencies_s.append(latency_s)

    @property
    def ok(self) -> int:
        return self.statuses.get("ok", 0)

    @property
    def shed_rate(self) -> float:
        return self.statuses.get("shed", 0) / self.requests if self.requests else 0.0

    def percentile(self, p: float) -> float:
        """Latency percentile (nearest-rank over ok responses), seconds."""
        if not self.latencies_s:
            return 0.0
        ranked = sorted(self.latencies_s)
        index = min(len(ranked) - 1, max(0, round(p / 100.0 * (len(ranked) - 1))))
        return ranked[index]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "wrong": self.wrong,
            "statuses": dict(sorted(self.statuses.items())),
            "shed_rate": round(self.shed_rate, 6),
            "clients": self.clients,
            "wall_s": round(self.wall_s, 4),
            "throughput_rps": round(self.requests / self.wall_s, 2) if self.wall_s else 0.0,
            "latency_s": {
                "p50": round(self.percentile(50), 6),
                "p95": round(self.percentile(95), 6),
                "p99": round(self.percentile(99), 6),
            },
        }


def expected_payloads(instance_spec: str) -> Dict[int, str]:
    """Canonical-JSON expected answer per population index, computed locally.

    Uses the identical pure core as the server's workers, so any divergence
    observed on the wire is a real serving bug, not generator drift.
    """
    _, system = build_instance(instance_spec)
    expectations: Dict[int, str] = {}
    for index, (kind, params) in enumerate(POPULATION):
        payload = compute_response(system, kind, canonical_params(kind, params))
        expectations[index] = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return expectations


def _pick(seed: int, client: int, step: int) -> int:
    """Deterministic population index for one request (order-independent)."""
    return derive_seed(seed, "loadgen", client, step) % len(POPULATION)


async def _drive_client(
    config: LoadgenConfig,
    client_index: int,
    report: LoadReport,
    expectations: Optional[Dict[int, str]],
    stop_at: Optional[float],
) -> None:
    client = AsyncServiceClient(config.host, config.port)
    try:
        await client.connect()
    except OSError:
        report.record("transport_error")
        return
    step = 0
    try:
        while True:
            if stop_at is not None:
                if time.perf_counter() >= stop_at:
                    break
            elif step >= config.requests_per_client:
                break
            index = _pick(config.seed, client_index, step)
            kind, params = POPULATION[index]
            step += 1
            start = time.perf_counter()
            try:
                response = await client.request(
                    kind,
                    params=params,
                    deadline_s=config.deadline_s,
                    request_id=f"g{client_index}.{step}",
                )
            except (ServiceUnavailableError, OSError):
                report.record("transport_error")
                try:
                    await client.close()
                    await client.connect()
                except OSError:
                    return
                continue
            latency = time.perf_counter() - start
            status = response.get("status", "error")
            report.record(status, latency)
            if status == "ok" and expectations is not None:
                got = json.dumps(
                    response.get("result"), sort_keys=True, separators=(",", ":")
                )
                if got != expectations[index]:
                    report.wrong += 1
    finally:
        await client.close()


async def run_load_async(config: LoadgenConfig) -> LoadReport:
    """Drive the configured scenario to completion and return its report."""
    expectations = expected_payloads(config.instance_spec) if config.verify else None
    report = LoadReport(clients=config.clients)
    start = time.perf_counter()
    stop_at = start + config.duration_s if config.duration_s is not None else None
    await asyncio.gather(
        *(
            _drive_client(config, index, report, expectations, stop_at)
            for index in range(config.clients)
        )
    )
    report.wall_s = time.perf_counter() - start
    return report


def run_load(config: LoadgenConfig) -> LoadReport:
    """Synchronous wrapper: run one scenario in a private event loop."""
    return asyncio.run(run_load_async(config))


__all__ = [
    "LoadReport",
    "LoadgenConfig",
    "POPULATION",
    "expected_payloads",
    "run_load",
    "run_load_async",
]
