"""Micro-benchmark for the compute-kernel backends (``repro.kernels``).

Measures, on a small grid of dense random systems:

* greedy set cover — the seed implementation's full-rescan loop (inlined
  here as the frozen reference) vs the CELF lazy greedy on the pure-Python
  and NumPy kernels, verifying the solutions are byte-identical while
  timing them;
* the batched kernel primitives (``gains``, ``element_frequencies``,
  ``restrict``) on both backends.

Writes the results as JSON (default ``BENCH_kernels.json`` at the repo
root) — the committed baseline every later PR compares its numbers
against.  Run it directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full grid
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI smoke grid

The ``--min-speedup X`` flag turns the headline measurement (lazy greedy on
the gated backend vs the seed rescan loop, largest grid entry) into an exit
code, for use as an acceptance gate; ``--backend compiled`` points the gate
at the compiled tier (every registered backend is always *measured* — the
flag only selects which one the gate and the ``--baseline`` comparison
read).  ``--baseline BENCH_kernels.json`` additionally prints the gated
backend's timings against a committed baseline file, entry by entry.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.exceptions import InfeasibleInstanceError
from repro.telemetry import clock
from repro.kernels import HAS_NUMPY, registered_backends
from repro.setcover.greedy import greedy_cover_trace
from repro.setcover.instance import SetSystem
from repro.utils.bitset import bitset_size
from repro.utils.rng import RandomSource

#: (n, m, seed) grid entries; the last full entry is the acceptance-criterion
#: instance (dense random, n=2048, m=4096).
QUICK_GRID = [(256, 512, 1), (512, 1024, 1)]
FULL_GRID = [(256, 512, 1), (512, 1024, 1), (1024, 2048, 1), (2048, 4096, 1)]

#: Each element joins each set with p = 2^-DENSITY_BITS (AND of that many
#: random words).  1/16 keeps the instances dense (n·m/16 incidences, ~n/16
#: elements per set) while the greedy cover stays deep enough (~4/ln(16)·ln n
#: picks) that per-pick cost, not instance setup, dominates.
DENSITY_BITS = 4


def dense_random_masks(n: int, m: int, seed: int) -> List[int]:
    """m random subsets of [n]; each element present with p = 2^-DENSITY_BITS."""
    rng = RandomSource(seed)
    universe = (1 << n) - 1
    masks = []
    for _ in range(m):
        mask = universe
        for _ in range(DENSITY_BITS):
            mask &= rng.randbits(n)
        masks.append(mask)
    return masks


def seed_greedy_rescan(system: SetSystem) -> List[int]:
    """The pre-kernel greedy loop, frozen verbatim as the timing reference."""
    uncovered = system.uncovered_mask([])
    solution: List[int] = []
    available = set(range(system.num_sets))
    while uncovered:
        best_index = -1
        best_gain = 0
        for index in available:
            gain = bitset_size(system.mask(index) & uncovered)
            if gain > best_gain or (gain == best_gain and gain > 0 and index < best_index):
                best_gain = gain
                best_index = index
        if best_gain == 0:
            raise InfeasibleInstanceError("uncoverable benchmark instance")
        available.remove(best_index)
        uncovered &= ~system.mask(best_index)
        solution.append(best_index)
    return solution


def _time(func, repeats: int = 3) -> float:
    """Best-of-N seconds for one call of ``func`` on the telemetry clock."""
    best = float("inf")
    for _ in range(repeats):
        started = clock()
        func()
        best = min(best, clock() - started)
    return best


def bench_entry(n: int, m: int, seed: int, repeats: int) -> Dict[str, object]:
    masks = dense_random_masks(n, m, seed)
    entry: Dict[str, object] = {"n": n, "m": m, "seed": seed, "density": 2 ** -DENSITY_BITS}

    systems = {
        backend: SetSystem.from_masks(n, masks, backend=backend)
        for backend in registered_backends()
    }
    reference_system = SetSystem.from_masks(n, masks, backend="python")

    # Greedy set cover: frozen rescan loop vs lazy greedy per backend.
    # Steady-state timing: solvers run on a prebuilt system after one warmup
    # call, so one-time kernel structures (packed matrix, inverted index) are
    # charged where they belong — to instance construction, amortised across
    # the many solver calls of a sweep — and the numbers compare the solve
    # itself, like the seed loop's numbers do.
    reference_solution = seed_greedy_rescan(reference_system)
    greedy: Dict[str, object] = {
        "seed_rescan_s": _time(lambda: seed_greedy_rescan(reference_system), repeats)
    }
    for backend, system in systems.items():
        trace = greedy_cover_trace(system)  # warmup + correctness gate
        assert trace.solution == reference_solution, (
            f"lazy greedy on {backend} diverged from the seed implementation"
        )
        elapsed = _time(lambda s=system: greedy_cover_trace(s), repeats)
        greedy[f"lazy_{backend}_s"] = elapsed
        greedy[f"speedup_{backend}"] = round(greedy["seed_rescan_s"] / elapsed, 2)
    greedy["solution_size"] = len(reference_solution)
    entry["greedy"] = greedy

    # Batched primitives per backend (kernel construction excluded: these
    # measure the steady-state per-call cost inside solver loops).
    uncovered = dense_random_masks(n, 1, seed + 1)[0]
    primitives: Dict[str, Dict[str, float]] = {}
    for backend, system in systems.items():
        kernel = system.kernel()
        primitives.setdefault("gains", {})[backend] = _time(
            lambda k=kernel: k.gains(uncovered), repeats
        )
        primitives.setdefault("element_frequencies", {})[backend] = _time(
            lambda k=kernel: k.element_frequencies(), repeats
        )
        primitives.setdefault("restrict", {})[backend] = _time(
            lambda k=kernel: k.restrict(uncovered), repeats
        )
    entry["primitives"] = primitives
    return entry


def run(grid, repeats: int = 3, echo=print) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "schema": "bench_kernels/v1",
        "python": platform.python_version(),
        "numpy": None,
        "backends": registered_backends(),
        "grid": [],
    }
    if HAS_NUMPY:
        import numpy

        payload["numpy"] = numpy.__version__
    for n, m, seed in grid:
        entry = bench_entry(n, m, seed, repeats)
        payload["grid"].append(entry)
        greedy = entry["greedy"]
        line = (
            f"n={n:>5} m={m:>5}  rescan={greedy['seed_rescan_s'] * 1e3:8.1f}ms  "
            + "  ".join(
                f"{backend}={greedy[f'lazy_{backend}_s'] * 1e3:8.1f}ms"
                f" ({greedy[f'speedup_{backend}']:.1f}x)"
                for backend in registered_backends()
            )
        )
        echo(line)
    return payload


def compare_to_baseline(
    payload: Dict[str, object], baseline_path: Path, backend: str, echo=print
) -> None:
    """Print the gated backend's lazy-greedy timings against a committed
    baseline file, matched per (n, m) grid entry.  Informational only: the
    baseline was recorded on different hardware, so this never sets an exit
    code — the enforced gate is the in-run ``--min-speedup`` ratio."""
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as exc:
        echo(f"baseline {baseline_path} unreadable ({exc}); skipping comparison")
        return
    baseline_entries = {
        (entry["n"], entry["m"]): entry["greedy"]
        for entry in baseline.get("grid", [])
    }
    key = f"lazy_{backend}_s"
    for entry in payload["grid"]:
        greedy = entry["greedy"]
        base = baseline_entries.get((entry["n"], entry["m"]))
        if base is None or key not in greedy:
            continue
        # Compare against the best lazy timing the baseline recorded for
        # this entry, whatever backend produced it.
        base_best = min(
            (value for name, value in base.items() if name.startswith("lazy_")),
            default=None,
        )
        if not base_best:
            continue
        ratio = base_best / greedy[key]
        echo(
            f"baseline n={entry['n']:>5} m={entry['m']:>5}  "
            f"{backend}={greedy[key] * 1e3:8.1f}ms  "
            f"baseline-best={base_best * 1e3:8.1f}ms  ({ratio:.2f}x vs baseline)"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small CI smoke grid instead of the full one"
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_kernels.json"),
        help="where to write the JSON baseline",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats (default 3)"
    )
    parser.add_argument(
        "--backend",
        default="numpy",
        help="backend whose numbers the --min-speedup gate and --baseline "
        "comparison read (default: numpy; all registered backends are "
        "always measured)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless lazy greedy on the gated backend beats the seed "
        "rescan by this factor on the largest grid entry",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed bench_kernels JSON to compare the gated backend's "
        "lazy-greedy timings against (informational, never fails the run)",
    )
    args = parser.parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    payload = run(grid, repeats=args.repeats)
    Path(args.output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    if args.baseline is not None:
        compare_to_baseline(payload, Path(args.baseline), args.backend)

    if args.min_speedup is not None:
        if args.backend not in payload["backends"]:
            print(
                f"FAIL: --min-speedup gate targets backend {args.backend!r} "
                f"but only {payload['backends']} are registered here",
                file=sys.stderr,
            )
            return 2
        headline = payload["grid"][-1]["greedy"][f"speedup_{args.backend}"]
        if headline < args.min_speedup:
            print(
                f"FAIL: {args.backend} lazy-greedy speedup {headline:.1f}x "
                f"< required {args.min_speedup:.1f}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"speedup gate passed ({args.backend}): "
            f"{headline:.1f}x >= {args.min_speedup:.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
