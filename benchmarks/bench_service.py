"""Serving gate for the solver service (``repro.service``).

Three scenarios, each a full service + seeded load-generator pair in one
process, each with its own promise measured instead of trusted:

1. **steady** — a pooled service under moderate closed-loop load: every
   request answered ``ok``, every answer verified against a locally computed
   expectation, latency percentiles reported.
2. **overload** — a deliberately tiny admission queue (no cache, no
   batching) under many more clients than it can carry: the service *sheds
   explicitly* (``shed_rate > 0``) and still never answers wrong, never
   hangs — graceful degradation as a measured outcome.
3. **chaos** — the steady scenario with a seeded worker-crash fault plan
   active (``service.request:crash``): pool respawns and retries cost
   latency, never bytes (``wrong == 0``).

The gate fails (exit 1) when any verified response is wrong, when overload
fails to shed, or when a scenario's p99 exceeds ``--max-p99``.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_service.py             # full
    PYTHONPATH=src python benchmarks/bench_service.py --quick     # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service.loadgen import LoadgenConfig, LoadReport, run_load_async
from repro.service.server import ServiceConfig, SolverService
from repro.utils.env import env_overrides

#: The instance every scenario serves and verifies against.  ``estimate``'s
#: multi-pass cost grows steeply with the universe; this size keeps one
#: compute in the ~100ms band — slow enough that admission and batching are
#: really exercised, fast enough that the overload scenario terminates.
INSTANCE_SPEC = "bench=random:n=48,m=64,seed=7"

#: The chaos schedule: a seeded 5% worker-crash rate on request compute.
CHAOS_FAULTS = "seed=13,service.request:crash:0.05"
CHAOS_RETRY = "attempts=4,backoff=0.005,respawns=8,breaker=16"


def run_scenario(
    service_config: ServiceConfig, load_config: LoadgenConfig
) -> Dict[str, object]:
    """One service + loadgen pair, drained afterwards; returns the report."""

    async def go() -> LoadReport:
        service = SolverService(service_config)
        host, port = await service.start()
        try:
            load = LoadgenConfig(
                **{**load_config.__dict__, "host": host, "port": port}
            )
            return await run_load_async(load)
        finally:
            await service.drain()

    return asyncio.run(go()).to_dict()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller client counts for CI"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="pool workers (default 2)"
    )
    parser.add_argument(
        "--max-p99",
        type=float,
        default=30.0,
        help="fail when any scenario's ok-latency p99 exceeds this many "
        "seconds (default 30, a deliberately generous CI bound)",
    )
    parser.add_argument(
        "--output", default=None, help="optionally write the measurement as JSON"
    )
    args = parser.parse_args(argv)

    clients = 6 if args.quick else 16
    per_client = 8 if args.quick else 25

    scenarios: Dict[str, Dict[str, object]] = {}

    scenarios["steady"] = run_scenario(
        ServiceConfig(workers=args.workers, instances=(INSTANCE_SPEC,)),
        LoadgenConfig(
            clients=clients,
            requests_per_client=per_client,
            seed=3,
            instance_spec=INSTANCE_SPEC,
        ),
    )

    scenarios["overload"] = run_scenario(
        ServiceConfig(
            workers=args.workers,
            instances=(INSTANCE_SPEC,),
            queue_limit=2,
            batch_size=1,
            cache_capacity=0,
        ),
        LoadgenConfig(
            clients=4 * clients,
            requests_per_client=max(4, per_client // 4),
            seed=5,
            instance_spec=INSTANCE_SPEC,
        ),
    )

    # Workers fork under the overrides, so they see the fault plan too.
    with env_overrides({"REPRO_FAULTS": CHAOS_FAULTS, "REPRO_RETRY": CHAOS_RETRY}):
        scenarios["chaos"] = run_scenario(
            ServiceConfig(workers=args.workers, instances=(INSTANCE_SPEC,)),
            LoadgenConfig(
                clients=clients,
                requests_per_client=per_client,
                seed=7,
                instance_spec=INSTANCE_SPEC,
            ),
        )

    payload: Dict[str, object] = {
        "schema": "bench_service/v1",
        "instance": INSTANCE_SPEC,
        "workers": args.workers,
        "quick": args.quick,
        "chaos_faults": CHAOS_FAULTS,
        "scenarios": scenarios,
    }

    failures: List[str] = []
    for name, report in scenarios.items():
        line = (
            f"{name:>9}: requests={report['requests']}  ok={report['ok']}  "
            f"wrong={report['wrong']}  shed_rate={report['shed_rate']}  "
            f"p50={report['latency_s']['p50']}s  p99={report['latency_s']['p99']}s"
        )
        print(line)
        if report["wrong"]:
            failures.append(f"{name}: {report['wrong']} verified-wrong answers")
        if report["ok"] and report["latency_s"]["p99"] > args.max_p99:
            failures.append(
                f"{name}: p99 {report['latency_s']['p99']}s > {args.max_p99}s"
            )
    if scenarios["overload"]["shed_rate"] <= 0:
        failures.append("overload: no requests were shed (queue bound inert?)")
    if scenarios["steady"]["ok"] != scenarios["steady"]["requests"]:
        failures.append("steady: not every request was answered ok")

    if args.output:
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.output}")

    for failure in failures:
        print(f"FAIL: {failure}")
    print("service gate:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
