"""Out-of-core instance plane benchmark: bounded-memory generation and solve.

Measures, on dense random instances up to m = 10^6 sets:

* **generate** — :func:`repro.workloads.outofcore.generate_to_file`, the
  chunked container writer: wall-clock throughput (rows/s) and peak Python
  allocation (tracemalloc), which must stay far below the packed buffer —
  the writer never holds the instance.
* **open** — one :meth:`MmapSource.open` of the written file, which hashes
  the data section against the header digest (``open_s``).
* **solve** — greedy set cover over the mmap backing
  (``SetSystem.from_source``): windowed kernel scans, peak allocation again
  bounded by the chunk window, not the buffer.
* **executor** — a two-cell WL sweep over the file on a two-worker
  ``TaskExecutor`` pool (each worker attaching the mmap descriptor),
  wall-clock for the sweep.

Every entry is parity-asserted before anything is timed: the file digest
equals the in-memory generator's, the windowed greedy solution equals the
heap-resident one, and the pooled payloads equal a serial heap-backed run
byte for byte.

Writes ``BENCH_outofcore.json`` at the repo root (the committed baseline).
Run directly::

    PYTHONPATH=src python benchmarks/bench_outofcore.py            # full grid
    PYTHONPATH=src python benchmarks/bench_outofcore.py --quick    # CI smoke grid

Acceptance gates (used by the CI ``outofcore`` job): ``--max-peak-mb X``
fails if the generate or solve leg of the largest entry allocated more
than X MB; ``--min-rows-per-sec R`` fails if generation throughput on the
largest entry drops below R.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.kernels import HAS_NUMPY, registered_backends
from repro.resilience.durability import canonical_json
from repro.runtime import RuntimeTask, TaskExecutor, freeze_params
from repro.setcover.greedy import greedy_set_cover
from repro.setcover.instance import SetSystem
from repro.setcover.source import HeapSource, MmapSource
from repro.workloads.outofcore import generate_to_file
from repro.workloads.random_instances import random_set_system

from microbench import best_of

#: (n, m, seed) grid entries; the last full entry is the acceptance-criterion
#: instance (m = 10^6 sets, generated and solved without residency).
QUICK_GRID = [(64, 100_000, 1)]
FULL_GRID = [(64, 100_000, 1), (64, 1_000_000, 1)]

#: The WL cells of the executor leg (cheap single-pass algorithm, both
#: arrival orders).
EXECUTOR_CELLS = ("adversarial", "random")


def _traced(func):
    tracemalloc.start()
    try:
        result = func()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _wl_tasks(descriptor) -> List[RuntimeTask]:
    return [
        RuntimeTask(
            key=f"WL[order={order}]",
            runner="WL",
            params=freeze_params(
                {
                    "workload": "random",
                    "algorithm": "saha_getoor",
                    "order": order,
                    "instance": descriptor,
                }
            ),
            seed=5,
        )
        for order in EXECUTOR_CELLS
    ]


def bench_entry(n: int, m: int, seed: int, workdir: Path) -> Dict[str, object]:
    path = workdir / f"bench-{n}-{m}.repro"

    # -- generate: timed cold, then re-run traced for the allocation peak --
    descriptor, generate_s = best_of(lambda: generate_to_file(path, n, m, seed=seed))
    traced_path = workdir / f"bench-{n}-{m}-traced.repro"
    _, generate_peak = _traced(
        lambda: generate_to_file(traced_path, n, m, seed=seed)
    )
    traced_path.unlink()
    buffer_bytes = descriptor.num_sets * ((n + 63) // 64) * 8

    # -- parity before timing: the file is the in-memory generator's bytes --
    in_memory = random_set_system(n, m, seed=seed)
    assert descriptor.digest == in_memory.content_digest(), "generation parity"

    # -- open: map the file and verify its digest --------------------------
    opened, open_s = best_of(lambda: MmapSource.open(path))
    opened.close()

    # -- solve: windowed greedy over the mmap backing ----------------------
    def windowed_solve():
        with MmapSource.open(path) as source:
            system = SetSystem.from_source(source)
            coverable = system.coverage_mask(range(system.num_sets))
            return greedy_set_cover(system, required_mask=coverable)

    solution, solve_s = best_of(windowed_solve)
    _, solve_peak = _traced(windowed_solve)
    coverable = in_memory.coverage_mask(range(in_memory.num_sets))
    assert solution == greedy_set_cover(in_memory, required_mask=coverable), (
        "windowed greedy must match the heap-resident solve"
    )

    # -- executor: the pool over mmap vs serial over heap -----------------
    with MmapSource.open(path) as source:
        mmap_descriptor = source.descriptor()
        heap_descriptor = HeapSource.from_packed(
            source.to_packed(), digest=source.digest()
        ).descriptor()
    serial_report = TaskExecutor(workers=1).run(_wl_tasks(heap_descriptor))
    pool_report, executor_s = best_of(
        lambda: TaskExecutor(workers=2).run(_wl_tasks(mmap_descriptor))
    )
    serial_bytes = [canonical_json(o.payload) for o in serial_report.outcomes]
    pool_bytes = [canonical_json(o.payload) for o in pool_report.outcomes]
    assert pool_bytes == serial_bytes, "worker/backing parity"

    path.unlink()
    return {
        "n": n,
        "m": m,
        "seed": seed,
        "buffer_bytes": buffer_bytes,
        "generate_s": round(generate_s, 4),
        "generate_rows_per_s": round(m / generate_s),
        "generate_peak_bytes": generate_peak,
        "open_s": round(open_s, 5),
        "solve_s": round(solve_s, 4),
        "solve_peak_bytes": solve_peak,
        "solution_size": len(solution),
        "executor_s": round(executor_s, 4),
        "executor_cells": len(EXECUTOR_CELLS),
    }


def run(grid, echo=print) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "schema": "bench_outofcore/v1",
        "python": platform.python_version(),
        "numpy": None,
        "backends": registered_backends(),
        "grid": [],
    }
    if HAS_NUMPY:
        import numpy

        payload["numpy"] = numpy.__version__
    with tempfile.TemporaryDirectory(prefix="repro-bench-outofcore-") as tmp:
        for n, m, seed in grid:
            entry = bench_entry(n, m, seed, Path(tmp))
            payload["grid"].append(entry)
            echo(
                f"n={n:>4} m={m:>8}  gen={entry['generate_s'] * 1e3:8.1f}ms "
                f"({entry['generate_rows_per_s']:>8} rows/s, "
                f"peak {entry['generate_peak_bytes'] / 1e6:5.1f}MB of "
                f"{entry['buffer_bytes'] / 1e6:5.1f}MB buffer)  "
                f"open={entry['open_s'] * 1e3:6.2f}ms  "
                f"solve={entry['solve_s'] * 1e3:8.1f}ms "
                f"(peak {entry['solve_peak_bytes'] / 1e6:5.1f}MB)  "
                f"executor={entry['executor_s'] * 1e3:8.1f}ms"
            )
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small CI smoke grid instead of the full one"
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_outofcore.json"),
        help="where to write the JSON baseline",
    )
    parser.add_argument(
        "--max-peak-mb",
        type=float,
        default=None,
        help="fail if the generate or solve leg of the largest entry "
        "allocated more than this many MB (the peak-RSS ceiling)",
    )
    parser.add_argument(
        "--min-rows-per-sec",
        type=float,
        default=None,
        help="fail if chunked generation throughput on the largest entry "
        "drops below this floor",
    )
    args = parser.parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    payload = run(grid)
    Path(args.output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    headline = payload["grid"][-1]
    if args.max_peak_mb is not None:
        peak_mb = max(
            headline["generate_peak_bytes"], headline["solve_peak_bytes"]
        ) / 1e6
        if peak_mb > args.max_peak_mb:
            print(
                f"FAIL: out-of-core peak allocation {peak_mb:.1f}MB "
                f"> ceiling {args.max_peak_mb:.1f}MB",
                file=sys.stderr,
            )
            return 1
        print(f"peak gate passed: {peak_mb:.1f}MB <= {args.max_peak_mb:.1f}MB")
    if args.min_rows_per_sec is not None:
        rate = headline["generate_rows_per_s"]
        if rate < args.min_rows_per_sec:
            print(
                f"FAIL: generation throughput {rate} rows/s "
                f"< floor {args.min_rows_per_sec:.0f}",
                file=sys.stderr,
            )
            return 1
        print(f"throughput gate passed: {rate} rows/s >= {args.min_rows_per_sec:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
