"""Micro-benchmark for the batched streaming layer (``repro.baselines`` et al).

Measures, on a grid of dense random systems, an E11-style baselines sweep —
Emek–Rosén, Saha–Getoor, Demaine progressive greedy, Har-Peled iterative
pruning, store-everything — plus the McGregor–Vu sketcher, the streaming
max-coverage subroutine, and the counting-bound estimator, on every
registered kernel backend (``python``, ``numpy``; pinned per system via
``backend=`` and, for the systems the algorithms build internally, via
``REPRO_KERNEL``).

Before anything is timed, every algorithm's whole :class:`StreamingResult`
(solution, estimate, passes, space report, metadata) on every backend must
equal its golden (``benchmarks/goldens/bench_streaming.json``).  The
goldens were written on every ``FULL_GRID`` entry by the pre-kernel
implementations (loops that streamed one ``(index, mask)`` pair at a time,
full-rescan offline solvers) before they were retired;
``tests/test_microbench.py`` checks them in the tier-1 suite.

Writes the results as JSON (default ``BENCH_streaming.json`` at the repo
root, the committed baseline).  Run it directly::

    PYTHONPATH=src python benchmarks/bench_streaming.py            # full grid
    PYTHONPATH=src python benchmarks/bench_streaming.py --quick    # CI smoke grid

``--baseline BENCH_streaming.json`` gates the run (see ``microbench.py``)
on the E11-style sweep total at the largest quick entry, on the highest
registered tier.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines import (
    EmekRosenSemiStreaming,
    IterativePruningSetCover,
    McGregorVuMaxCoverage,
    ProgressiveGreedyPasses,
    SahaGetoorGreedy,
    StoreEverythingSetCover,
)
from repro.core.maxcover_stream import StreamingMaxCoverage
from repro.core.value_estimation import CountingBoundEstimator
from repro.kernels import KERNEL_ENV_VAR, registered_backends
from repro.setcover.instance import SetSystem
from repro.streaming.algorithm_base import StreamingResult
from repro.streaming.stream import SetStream
from repro.utils.env import env_overrides
from repro.utils.rng import RandomSource

import microbench
from microbench import best_of, grid_entry

#: (n, m, seed) grid entries; the last full entry is the acceptance-criterion
#: instance (dense random, n=2048, m=4096).
QUICK_GRID = [(512, 1024, 1)]
FULL_GRID = [(512, 1024, 1), (1024, 2048, 1), (2048, 4096, 1)]

#: Element membership probability 2^-DENSITY_BITS, as in bench_kernels.
DENSITY_BITS = 4

#: Deterministic seeds for the rng-carrying algorithms (same on every backend).
HP_SEED = 42
MV_SEED = 7
SMC_SEED = 11

#: The Har-Peled opt guess the goldens were written with.
OPT_GUESS = 32

GOLDENS = Path(__file__).resolve().parent / "goldens" / "bench_streaming.json"


def dense_random_masks(n: int, m: int, seed: int) -> List[int]:
    """m random subsets of [n], each element present with p = 2^-DENSITY_BITS,
    patched so the union covers the universe (set-cover baselines need it)."""
    rng = RandomSource(seed)
    universe = (1 << n) - 1
    masks = []
    for _ in range(m):
        mask = universe
        for _ in range(DENSITY_BITS):
            mask &= rng.randbits(n)
        masks.append(mask)
    missing = universe
    for mask in masks:
        missing &= ~mask
    masks[0] |= missing
    return masks


# ---------------------------------------------------------------------------
# The sweep: (label, factory, in E11 headline sweep?)
# ---------------------------------------------------------------------------
def sweep_algorithms():
    return [
        ("emek_rosen", lambda: EmekRosenSemiStreaming(), True),
        ("saha_getoor", lambda: SahaGetoorGreedy(), True),
        ("demaine", lambda: ProgressiveGreedyPasses(num_passes=4), True),
        (
            "har_peled",
            lambda: IterativePruningSetCover(alpha=2, opt_guess=OPT_GUESS, seed=HP_SEED),
            True,
        ),
        ("store_everything", lambda: StoreEverythingSetCover(solver="greedy"), True),
        ("mcgregor_vu", lambda: McGregorVuMaxCoverage(k=4, sketch_size=32, seed=MV_SEED), False),
        (
            "streaming_maxcover",
            lambda: StreamingMaxCoverage(k=4, epsilon=0.3, solver="greedy", seed=SMC_SEED),
            False,
        ),
        ("counting_bound", lambda: CountingBoundEstimator(), False),
    ]


def backend_systems(n: int, m: int, seed: int) -> Dict[str, SetSystem]:
    """The grid entry's system per registered backend, kernels prebuilt.

    Each run also pins ``REPRO_KERNEL`` to its backend: the baselines build
    *internal* systems (stored streams, sketches, projections) with
    ``backend="auto"``, and the env var is what routes those, exactly as a
    user running ``REPRO_KERNEL=numpy`` would experience.
    """
    masks = dense_random_masks(n, m, seed)
    systems = {
        backend: SetSystem.from_masks(n, masks, backend=backend)
        for backend in registered_backends()
    }
    for system in systems.values():
        system.kernel()  # construction charged to instance setup, as a sweep would
    return systems


def golden_record(result: StreamingResult) -> Dict[str, object]:
    """A result as the goldens store it: its fields through a JSON round trip."""
    return json.loads(json.dumps(dataclasses.asdict(result)))


def check_golden(n: int, m: int, seed: int, systems: Mapping[str, SetSystem]) -> None:
    """Every sweep algorithm on every backend must reproduce its golden result."""
    goldens = grid_entry(json.loads(GOLDENS.read_text()), n=n, m=m, seed=seed)["results"]
    for label, factory, _ in sweep_algorithms():
        for backend, system in systems.items():
            with env_overrides({KERNEL_ENV_VAR: backend}):
                outcome = factory().run(SetStream(system))
            assert golden_record(outcome) == goldens[label], (
                f"{label} on the {backend} backend diverged from its golden "
                f"result at n={n} m={m}"
            )


def bench_entry(n: int, m: int, seed: int, repeats: int) -> Dict[str, object]:
    systems = backend_systems(n, m, seed)
    check_golden(n, m, seed, systems)

    results: Dict[str, Dict[str, object]] = {}
    sweep_totals = {backend: 0.0 for backend in systems}
    for label, factory, in_sweep in sweep_algorithms():
        row: Dict[str, object] = {}
        for backend, system in systems.items():
            with env_overrides({KERNEL_ENV_VAR: backend}):
                outcome, elapsed = best_of(
                    lambda s=system: factory().run(SetStream(s)), repeats
                )
            row[f"{backend}_s"] = elapsed
            if in_sweep:
                sweep_totals[backend] += elapsed
        row["solution_size"] = len(outcome.solution)
        row["passes"] = outcome.passes
        results[label] = row
    return {
        "n": n,
        "m": m,
        "seed": seed,
        "density": 2 ** -DENSITY_BITS,
        "algorithms": results,
        "e11_sweep": {f"{backend}_s": total for backend, total in sweep_totals.items()},
    }


def run(grid, repeats: int = 3, echo=print) -> Dict[str, object]:
    payload = microbench.new_payload("bench_streaming/v2", backends=registered_backends())
    for n, m, seed in grid:
        entry = bench_entry(n, m, seed, repeats)
        payload["grid"].append(entry)
        sweep = entry["e11_sweep"]
        echo(
            f"n={n:>5} m={m:>5}  sweep  "
            + "  ".join(
                f"{backend}={sweep[f'{backend}_s'] * 1e3:8.1f}ms"
                for backend in registered_backends()
            )
        )
    return payload


def gated_times(payload: Mapping[str, object]) -> Dict[str, Optional[float]]:
    """The E11-style sweep at the largest quick entry on the highest registered tier."""
    n, m, seed = QUICK_GRID[-1]
    backend = registered_backends()[-1]
    sweep = grid_entry(payload, n=n, m=m, seed=seed).get("e11_sweep", {})
    return {f"E11 sweep n={n} m={m} {backend}": sweep.get(f"{backend}_s")}


def main(argv: Optional[List[str]] = None) -> int:
    parser = microbench.argument_parser(__doc__.splitlines()[0], "BENCH_streaming.json")
    args = parser.parse_args(argv)
    committed = microbench.load_baseline(args.baseline)
    payload = run(QUICK_GRID if args.quick else FULL_GRID, repeats=args.repeats)
    return microbench.finish(payload, args.output, committed, gated_times)


if __name__ == "__main__":
    sys.exit(main())
