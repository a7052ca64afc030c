"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root::

    python3 e2ebench/steadiness.py --workloads serve repro-all --seeds 1 2 3 4 5

For every workload and end-to-end metric it prints the median over the
seeds and the interquartile distance as a share of that median
(``statistics.quantiles(values, n=4)``), next to a third of the metric's
bound from ``BENCHMARK.json``: a steady benchmark keeps every spread below
that.  Runs go one at a time, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT)]

from e2ebench.stats import median, quartile_spread  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    collected = {}
    status = 0
    for workload in args.workloads:
        values = collected.setdefault(workload, {})
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=str(ROOT), capture_output=True, text=True, timeout=900,
            )
            wall = time.perf_counter() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                status = 1
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed} ({wall:.1f}s): " + " ".join(
                f"{name}={entry['value']:.5g}" for name, entry in result["metrics"].items()
            ), flush=True)
        for name, series in values.items():
            if not series:
                continue
            spread = quartile_spread(series)
            bound = bounds.get(name)
            limit = f" limit {bound / 3:.3f}" if bound else ""
            flag = " !" if bound and spread >= bound / 3 else ""
            print(f"  {workload} {name}: median {median(series):.5g} spread {spread:.3f}{limit}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
