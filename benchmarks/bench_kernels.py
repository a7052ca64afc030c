"""Micro-benchmark for the compute-kernel backends (``repro.kernels``).

Measures, on a small grid of dense random systems:

* greedy set cover — the CELF lazy greedy on every registered backend,
  after checking that each backend reproduces the golden picks;
* the batched kernel primitives (``gains``, ``element_frequencies``,
  ``restrict``) on every backend.

The goldens (``benchmarks/goldens/bench_kernels.json``) are the picks of
the pre-kernel full-rescan greedy loop, written by that loop on every
``FULL_GRID`` entry before it was retired; ``tests/test_microbench.py``
checks them in the tier-1 suite.

Writes the results as JSON (default ``BENCH_kernels.json`` at the repo
root, the committed baseline).  Run it directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full grid
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI smoke grid

``--baseline BENCH_kernels.json`` gates the run (see ``microbench.py``) on
lazy greedy at the largest quick entry, on the highest registered backend
(``numpy`` where NumPy is installed).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.kernels import registered_backends
from repro.setcover.greedy import greedy_cover_trace
from repro.setcover.instance import SetSystem
from repro.utils.rng import RandomSource

import microbench
from microbench import best_of, grid_entry

#: (n, m, seed) grid entries; the last full entry is the acceptance-criterion
#: instance (dense random, n=2048, m=4096).
QUICK_GRID = [(256, 512, 1), (512, 1024, 1)]
FULL_GRID = [(256, 512, 1), (512, 1024, 1), (1024, 2048, 1), (2048, 4096, 1)]

#: Each element joins each set with p = 2^-DENSITY_BITS (AND of that many
#: random words).  1/16 keeps the instances dense (n·m/16 incidences, ~n/16
#: elements per set) while the greedy cover stays deep enough (~4/ln(16)·ln n
#: picks) that per-pick cost, not instance setup, dominates.
DENSITY_BITS = 4

GOLDENS = Path(__file__).resolve().parent / "goldens" / "bench_kernels.json"


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


def backend_systems(n: int, m: int, seed: int) -> Dict[str, SetSystem]:
    """The grid entry's system, built once per registered backend."""
    masks = dense_random_masks(n, m, seed)
    return {
        backend: SetSystem.from_masks(n, masks, backend=backend)
        for backend in registered_backends()
    }


def check_golden(n: int, m: int, seed: int, systems: Mapping[str, SetSystem]) -> List[int]:
    """Lazy greedy on every backend must pick exactly the golden sets."""
    picks = grid_entry(json.loads(GOLDENS.read_text()), n=n, m=m, seed=seed)["picks"]
    for backend, system in systems.items():
        solution = greedy_cover_trace(system).solution
        assert solution == picks, (
            f"lazy greedy on {backend} diverged from the golden picks at n={n} m={m}"
        )
    return picks


def bench_entry(n: int, m: int, seed: int, repeats: int) -> Dict[str, object]:
    systems = backend_systems(n, m, seed)
    entry: Dict[str, object] = {"n": n, "m": m, "seed": seed, "density": 2 ** -DENSITY_BITS}

    # The golden check doubles as the warmup.  Steady-state timing: solvers
    # run on a prebuilt system, so the packed matrix is built outside the
    # timer.  The NumPy tracker's inverted index is not prebuilt: a kernel
    # builds it only once its trackers have served ``_RESCANS_BEFORE_INDEX``
    # rescans (see repro.kernels.numpy_backend), so on the smaller entries
    # every repeat picks by rescans, and on the larger ones the build lands
    # inside a timed repeat and the best of N is a run on the index.
    picks = check_golden(n, m, seed, systems)
    greedy: Dict[str, object] = {"solution_size": len(picks)}
    for backend, system in systems.items():
        greedy[f"lazy_{backend}_s"] = best_of(
            lambda s=system: greedy_cover_trace(s), repeats
        )[1]
    entry["greedy"] = greedy

    # Batched primitives per backend (kernel construction excluded: these
    # measure the steady-state per-call cost inside solver loops).
    uncovered = dense_random_masks(n, 1, seed + 1)[0]
    primitives: Dict[str, Dict[str, float]] = {}
    for backend, system in systems.items():
        kernel = system.kernel()
        for name, call in (
            ("gains", lambda k=kernel: k.gains(uncovered)),
            ("element_frequencies", lambda k=kernel: k.element_frequencies()),
            ("restrict", lambda k=kernel: k.restrict(uncovered)),
        ):
            primitives.setdefault(name, {})[backend] = best_of(call, repeats)[1]
    entry["primitives"] = primitives
    return entry


def run(grid, repeats: int = 3, echo=print) -> Dict[str, object]:
    payload = microbench.new_payload("bench_kernels/v2", backends=registered_backends())
    for n, m, seed in grid:
        entry = bench_entry(n, m, seed, repeats)
        payload["grid"].append(entry)
        greedy = entry["greedy"]
        echo(
            f"n={n:>5} m={m:>5}  greedy  "
            + "  ".join(
                f"{backend}={greedy[f'lazy_{backend}_s'] * 1e3:8.1f}ms"
                for backend in registered_backends()
            )
        )
    return payload


def gated_times(payload: Mapping[str, object]) -> Dict[str, Optional[float]]:
    """Lazy greedy at the largest quick entry on the highest registered tier."""
    n, m, seed = QUICK_GRID[-1]
    backend = registered_backends()[-1]
    greedy = grid_entry(payload, n=n, m=m, seed=seed).get("greedy", {})
    return {f"greedy n={n} m={m} {backend}": greedy.get(f"lazy_{backend}_s")}


def main(argv: Optional[List[str]] = None) -> int:
    parser = microbench.argument_parser(__doc__.splitlines()[0], "BENCH_kernels.json")
    args = parser.parse_args(argv)
    committed = microbench.load_baseline(args.baseline)
    payload = run(QUICK_GRID if args.quick else FULL_GRID, repeats=args.repeats)
    return microbench.finish(payload, args.output, committed, gated_times)


if __name__ == "__main__":
    sys.exit(main())
