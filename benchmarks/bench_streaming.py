"""Micro-benchmark for the batched streaming layer (``repro.baselines`` et al).

Measures, on a grid of dense random systems, an E11-style baselines sweep —
Emek–Rosén, Saha–Getoor, Demaine progressive greedy, Har-Peled iterative
pruning, store-everything — plus the McGregor–Vu sketcher, the streaming
max-coverage subroutine, and the counting-bound estimator, each along three
paths:

* **seed** — the pre-kernel implementations frozen verbatim below: per-set
  ``iterate_pass`` loops over int bitsets, offline sub-solves through the
  seed's full-rescan greedy.  This is the repository's original lineage,
  the same reference convention as ``bench_kernels.py``.
* **python** — the current batched implementations on the pure-Python kernel.
* **numpy** — the same on the NumPy kernel (``REPRO_KERNEL=numpy``
  equivalent, pinned per system via ``backend=``).

Every run is asserted byte-identical across the three paths (full
:class:`StreamingResult` equality: solution, estimate, passes, space report,
metadata) before anything is timed.

Writes the results as JSON (default ``BENCH_streaming.json`` at the repo
root) — the committed baseline later PRs compare against.  Run it directly::

    PYTHONPATH=src python benchmarks/bench_streaming.py            # full grid
    PYTHONPATH=src python benchmarks/bench_streaming.py --quick    # CI smoke grid

``--min-speedup X`` turns the headline measurement (the E11-style sweep
total on the NumPy path vs the seed path, largest grid entry) into an exit
code, for use as an acceptance gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines import (
    EmekRosenSemiStreaming,
    IterativePruningSetCover,
    McGregorVuMaxCoverage,
    ProgressiveGreedyPasses,
    SahaGetoorGreedy,
    StoreEverythingSetCover,
)
from repro.core.element_sampling import element_sample, sampling_probability
from repro.core.maxcover_stream import StreamingMaxCoverage
from repro.core.value_estimation import CountingBoundEstimator
from repro.exceptions import InfeasibleInstanceError
from repro.kernels import HAS_NUMPY, registered_backends
from repro.setcover.instance import SetSystem
from repro.streaming.algorithm_base import StreamingAlgorithm, StreamingResult
from repro.streaming.stream import SetStream
from repro.telemetry import clock
from repro.utils.bitset import bitset_from_iterable, bitset_size, bitset_to_set
from repro.utils.rng import RandomSource, SeedLike, spawn_rng

#: (n, m, seed) grid entries; the last full entry is the acceptance-criterion
#: instance (dense random, n=2048, m=4096).
QUICK_GRID = [(512, 1024, 1)]
FULL_GRID = [(512, 1024, 1), (1024, 2048, 1), (2048, 4096, 1)]

#: Element membership probability 2^-DENSITY_BITS, as in bench_kernels.
DENSITY_BITS = 4

#: Deterministic seeds for the rng-carrying algorithms (same on every path).
HP_SEED = 42
MV_SEED = 7
SMC_SEED = 11


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
# Frozen seed-path implementations (pre-kernel repository lineage, verbatim
# semantics: per-set stream loops, full-rescan offline solvers).
# ---------------------------------------------------------------------------
def seed_greedy_rescan(system: SetSystem, required_mask: Optional[int] = None) -> List[int]:
    """The seed's greedy set cover: a full gain rescan per pick."""
    uncovered = system.uncovered_mask([]) if required_mask is None else required_mask
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


def seed_greedy_max_coverage(system: SetSystem, k: int) -> Tuple[List[int], int]:
    """The seed's greedy max coverage: a full gain rescan per pick."""
    chosen: List[int] = []
    covered = 0
    available = set(range(system.num_sets))
    for _ in range(min(k, system.num_sets)):
        best_index = None
        best_gain = -1
        for index in available:
            gain = bitset_size(system.mask(index) & ~covered)
            if gain > best_gain or (
                gain == best_gain and best_index is not None and index < best_index
            ):
                best_gain = gain
                best_index = index
        if best_index is None or best_gain <= 0:
            break
        chosen.append(best_index)
        available.remove(best_index)
        covered |= system.mask(best_index)
    return chosen, bitset_size(covered)


class SeedEmekRosen(StreamingAlgorithm):
    name = "emek-rosen-semi-streaming"

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        responsible: Dict[int, int] = {}
        credit_size: Dict[int, int] = {}
        self.space.set_usage("per_element_state", 2 * n)
        for set_index, mask in stream.iterate_pass():
            size = bitset_size(mask)
            if size == 0:
                continue
            claimable = [
                element
                for element in bitset_to_set(mask)
                if credit_size.get(element, 0) < size
            ]
            if not claimable:
                continue
            for element in claimable:
                responsible[element] = set_index
                credit_size[element] = size
        solution = sorted(set(responsible.values()))
        self.space.set_usage("solution", len(solution))
        covered = stream.system.coverage_mask(solution) if solution else 0
        return self._finalize(
            stream, solution, metadata={"uncovered_after_run": n - bitset_size(covered)}
        )


class SeedSahaGetoor(StreamingAlgorithm):
    name = "saha-getoor-greedy"

    def __init__(self, threshold_fraction: float = 0.0) -> None:
        super().__init__()
        self.threshold_fraction = threshold_fraction

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        uncovered = (1 << n) - 1
        solution: List[int] = []
        self.space.set_usage("uncovered_universe", n)
        for set_index, mask in stream.iterate_pass():
            if uncovered == 0:
                break
            gain = bitset_size(mask & uncovered)
            if gain == 0:
                continue
            remaining = bitset_size(uncovered)
            if gain >= max(1, self.threshold_fraction * remaining):
                solution.append(set_index)
                uncovered &= ~mask
                self.space.set_usage("solution", len(solution))
        metadata = {
            "uncovered_after_run": bitset_size(uncovered),
            "threshold_fraction": self.threshold_fraction,
        }
        return self._finalize(stream, solution, metadata=metadata)


class SeedDemaine(StreamingAlgorithm):
    name = "demaine-progressive-greedy"

    def __init__(self, num_passes: int) -> None:
        super().__init__()
        self.num_passes = num_passes

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        uncovered = (1 << n) - 1
        solution: List[int] = []
        chosen = set()
        self.space.set_usage("uncovered_universe", n)
        for pass_index in range(self.num_passes):
            if uncovered == 0:
                break
            threshold = max(1.0, n / (2 ** (pass_index + 1)))
            if pass_index == self.num_passes - 1:
                threshold = 1.0
            for set_index, mask in stream.iterate_pass():
                if uncovered == 0:
                    break
                if set_index in chosen:
                    continue
                gain = bitset_size(mask & uncovered)
                if gain >= threshold:
                    chosen.add(set_index)
                    solution.append(set_index)
                    uncovered &= ~mask
                    self.space.set_usage("solution", len(solution))
        return self._finalize(
            stream, solution, metadata={"uncovered_after_run": bitset_size(uncovered)}
        )


class SeedHarPeled(StreamingAlgorithm):
    name = "har-peled-iterative-pruning"

    def __init__(
        self,
        alpha: int,
        opt_guess: int,
        epsilon: float = 0.5,
        sampling_constant: float = 16.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.alpha = alpha
        self.opt_guess = opt_guess
        self.epsilon = epsilon
        self.sampling_constant = sampling_constant
        self._rng = spawn_rng(seed)

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        m = stream.num_sets
        uncovered = (1 << n) - 1
        solution: List[int] = []
        chosen = set()
        metadata: Dict[str, object] = {"sample_sizes": [], "stored_incidences_per_round": []}
        self.space.set_usage("uncovered_universe", n)
        rho = n ** (-min(1.0, 2.0 / self.alpha)) if n > 1 else 0.5
        for iteration in range(self.alpha):
            if uncovered == 0:
                break
            threshold = n / (self.epsilon * self.opt_guess * (2 ** iteration))
            for set_index, mask in stream.iterate_pass():
                if set_index in chosen:
                    continue
                if bitset_size(mask & uncovered) >= max(1.0, threshold):
                    chosen.add(set_index)
                    solution.append(set_index)
                    uncovered &= ~mask
                    self.space.set_usage("solution", len(solution))
            if uncovered == 0:
                break
            probability = sampling_probability(
                universe_size=n,
                num_sets=m,
                cover_size_bound=self.opt_guess,
                rho=rho,
                constant=self.sampling_constant,
            )
            sample = element_sample(
                bitset_to_set(uncovered), probability, seed=self._rng.spawn()
            )
            sample_mask = bitset_from_iterable(sample)
            metadata["sample_sizes"].append(len(sample))
            self.space.set_usage("sampled_universe", len(sample))
            projections = [0] * m
            stored = 0
            for set_index, mask in stream.iterate_pass():
                projections[set_index] = mask & sample_mask
                stored += bitset_size(projections[set_index])
                self.space.set_usage("stored_incidences", stored)
            metadata["stored_incidences_per_round"].append(stored)

            system = SetSystem.from_masks(n, projections)
            target = sample_mask
            for index in chosen:
                target &= ~projections[index]
            coverable = 0
            for mask in projections:
                coverable |= mask
            target &= coverable
            round_solution: List[int] = []
            if target:
                try:
                    round_solution = seed_greedy_rescan(system, required_mask=target)
                except InfeasibleInstanceError:
                    round_solution = []
            round_set = set(round_solution)
            for set_index, mask in stream.iterate_pass():
                if set_index in round_set:
                    uncovered &= ~mask
            for set_index in round_solution:
                if set_index not in chosen:
                    chosen.add(set_index)
                    solution.append(set_index)
            self.space.set_usage("solution", len(solution))
            self.space.reset_category("stored_incidences")
            self.space.reset_category("sampled_universe")
        if uncovered:
            for set_index, mask in stream.iterate_pass():
                if uncovered == 0:
                    break
                if set_index in chosen:
                    continue
                if mask & uncovered:
                    chosen.add(set_index)
                    solution.append(set_index)
                    uncovered &= ~mask
                    self.space.set_usage("solution", len(solution))
            metadata["cleanup_used"] = True
        metadata["uncovered_after_run"] = bitset_size(uncovered)
        return self._finalize(stream, solution, metadata=metadata)


class SeedMcGregorVu(StreamingAlgorithm):
    name = "mcgregor-vu-maxcover"

    def __init__(self, k: int, sketch_size: int, seed: SeedLike = None) -> None:
        super().__init__()
        self.k = k
        self.sketch_size = sketch_size
        self._rng = spawn_rng(seed)

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        m = stream.num_sets
        sketches: List[int] = [0] * m
        true_sizes: Dict[int, int] = {}
        stored = 0
        for set_index, mask in stream.iterate_pass():
            elements = list(bitset_to_set(mask))
            true_sizes[set_index] = len(elements)
            if len(elements) > self.sketch_size:
                elements = self._rng.sample(elements, self.sketch_size)
            sketches[set_index] = bitset_from_iterable(elements)
            stored += len(elements) + 1
            self.space.set_usage("sketches", stored)
        sketch_system = SetSystem.from_masks(n, sketches)
        chosen, sketch_value = seed_greedy_max_coverage(sketch_system, self.k)
        estimate = 0.0
        seen = 0
        for index in chosen:
            sketch_len = bitset_size(sketches[index]) or 1
            new_in_sketch = bitset_size(sketches[index] & ~seen)
            estimate += new_in_sketch * (true_sizes.get(index, 0) / sketch_len)
            seen |= sketches[index]
        metadata = {
            "k": self.k,
            "sketch_size": self.sketch_size,
            "sketch_coverage": sketch_value,
        }
        return self._finalize(stream, chosen, estimated_value=estimate, metadata=metadata)


class SeedStoreEverything(StreamingAlgorithm):
    name = "store-everything-setcover"

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        m = stream.num_sets
        masks = [0] * m
        stored = 0
        for set_index, mask in stream.iterate_pass():
            masks[set_index] = mask
            stored += bitset_size(mask)
            self.space.set_usage("stored_incidences", stored)
        system = SetSystem.from_masks(n, masks)
        solution = seed_greedy_rescan(system)
        self.space.set_usage("solution", len(solution))
        return self._finalize(stream, solution)


class SeedStreamingMaxCoverage(StreamingAlgorithm):
    name = "streaming-max-coverage"

    def __init__(self, k: int, epsilon: float, seed: SeedLike = None) -> None:
        super().__init__()
        self.inner = StreamingMaxCoverage(k=k, epsilon=epsilon, solver="greedy", seed=seed)

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        m = stream.num_sets
        inner = self.inner
        rate = inner.sampling_rate(n, m)
        sampled_universe = element_sample(range(n), rate, seed=inner._rng.spawn())
        sampled_mask = bitset_from_iterable(sampled_universe)
        inner.space.set_usage("sampled_universe", len(sampled_universe))
        projections: List[int] = [0] * m
        stored = 0
        for set_index, mask in stream.iterate_pass():
            projection = mask & sampled_mask
            projections[set_index] = projection
            stored += bitset_size(projection)
            inner.space.set_usage("stored_incidences", stored)
        system = SetSystem.from_masks(n, projections)
        chosen, sampled_value = seed_greedy_max_coverage(system, inner.k)
        scale = 1.0 / rate if rate > 0 else 0.0
        metadata: Dict[str, object] = {
            "k": inner.k,
            "epsilon": inner.epsilon,
            "sampling_rate": rate,
            "sampled_universe_size": len(sampled_universe),
            "sampled_coverage": sampled_value,
        }
        self.space = inner.space
        return self._finalize(
            stream, chosen, estimated_value=sampled_value * scale, metadata=metadata
        )


class SeedCountingBound(StreamingAlgorithm):
    name = "counting-bound-estimator"

    def run(self, stream: SetStream) -> StreamingResult:
        n = stream.universe_size
        largest = 0
        self.space.set_usage("counters", 2)
        for _set_index, mask in stream.iterate_pass():
            largest = max(largest, bitset_size(mask))
        if largest == 0:
            estimate = float("inf") if n > 0 else 0.0
        else:
            estimate = float(-(-n // largest))
        return self._finalize(stream, [], estimated_value=estimate)


# ---------------------------------------------------------------------------
# The sweep: (label, seed factory, current factory, in E11 headline sweep?)
# ---------------------------------------------------------------------------
def sweep_algorithms(opt_guess: int):
    return [
        (
            "emek_rosen",
            lambda: SeedEmekRosen(),
            lambda: EmekRosenSemiStreaming(),
            True,
        ),
        (
            "saha_getoor",
            lambda: SeedSahaGetoor(),
            lambda: SahaGetoorGreedy(),
            True,
        ),
        (
            "demaine",
            lambda: SeedDemaine(num_passes=4),
            lambda: ProgressiveGreedyPasses(num_passes=4),
            True,
        ),
        (
            "har_peled",
            lambda: SeedHarPeled(alpha=2, opt_guess=opt_guess, seed=HP_SEED),
            lambda: IterativePruningSetCover(
                alpha=2, opt_guess=opt_guess, subinstance_solver="greedy", seed=HP_SEED
            ),
            True,
        ),
        (
            "store_everything",
            lambda: SeedStoreEverything(),
            lambda: StoreEverythingSetCover(solver="greedy"),
            True,
        ),
        (
            "mcgregor_vu",
            lambda: SeedMcGregorVu(k=4, sketch_size=32, seed=MV_SEED),
            lambda: McGregorVuMaxCoverage(k=4, sketch_size=32, seed=MV_SEED),
            False,
        ),
        (
            "streaming_maxcover",
            lambda: SeedStreamingMaxCoverage(k=4, epsilon=0.3, seed=SMC_SEED),
            lambda: StreamingMaxCoverage(k=4, epsilon=0.3, solver="greedy", seed=SMC_SEED),
            False,
        ),
        (
            "counting_bound",
            lambda: SeedCountingBound(),
            lambda: CountingBoundEstimator(),
            False,
        ),
    ]


def _time(func: Callable[[], object], repeats: int) -> float:
    """Best-of-N seconds for one call of ``func`` on the telemetry clock."""
    best = float("inf")
    for _ in range(repeats):
        started = clock()
        func()
        best = min(best, clock() - started)
    return best


@contextmanager
def kernel_env(backend: str):
    """Pin ``REPRO_KERNEL`` for one timed path.

    The stream's system is pinned via ``backend=``, but the baselines also
    build *internal* systems (stored streams, sketches, projections) with
    ``backend="auto"`` — the env var is what routes those, exactly as a user
    running ``REPRO_KERNEL=numpy`` would experience.
    """
    prior = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = backend
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = prior


def bench_entry(n: int, m: int, seed: int, repeats: int) -> Dict[str, object]:
    masks = dense_random_masks(n, m, seed)
    entry: Dict[str, object] = {"n": n, "m": m, "seed": seed, "density": 2 ** -DENSITY_BITS}

    # The frozen seed path always runs pure Python; the current code runs on
    # each available backend, pinned per system.
    seed_system = SetSystem.from_masks(n, masks, backend="python")
    systems = {
        backend: SetSystem.from_masks(n, masks, backend=backend)
        for backend in registered_backends()
    }
    for system in systems.values():
        system.kernel()  # construction charged to instance setup, as a sweep would

    opt_guess = 32
    algorithms = sweep_algorithms(opt_guess)
    results: Dict[str, Dict[str, float]] = {}
    sweep_totals: Dict[str, float] = {"seed": 0.0}
    for backend in systems:
        sweep_totals[backend] = 0.0

    for label, seed_factory, current_factory, in_sweep in algorithms:
        row: Dict[str, object] = {}
        with kernel_env("python"):
            reference = seed_factory().run(SetStream(seed_system))
            row["solution_size"] = len(reference.solution)
            row["passes"] = reference.passes
            seed_elapsed = _time(
                lambda: seed_factory().run(SetStream(seed_system)), repeats
            )
        row["seed_s"] = seed_elapsed
        if in_sweep:
            sweep_totals["seed"] += seed_elapsed

        for backend, system in systems.items():
            with kernel_env(backend):
                outcome = current_factory().run(SetStream(system))
                assert outcome == reference, (
                    f"{label} on the {backend} backend diverged from the seed path"
                )
                elapsed = _time(
                    lambda f=current_factory, s=system: f().run(SetStream(s)), repeats
                )
            row[f"{backend}_s"] = elapsed
            row[f"speedup_{backend}"] = round(seed_elapsed / elapsed, 2)
            if in_sweep:
                sweep_totals[backend] += elapsed
        results[label] = row

    entry["algorithms"] = results
    entry["e11_sweep"] = {
        f"{path}_s": total for path, total in sweep_totals.items()
    }
    for backend in systems:
        entry["e11_sweep"][f"speedup_{backend}"] = round(
            sweep_totals["seed"] / sweep_totals[backend], 2
        )
    return entry


def run(grid, repeats: int = 3, echo=print) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "schema": "bench_streaming/v1",
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
        sweep = entry["e11_sweep"]
        line = (
            f"n={n:>5} m={m:>5}  sweep: seed={sweep['seed_s'] * 1e3:8.1f}ms  "
            + "  ".join(
                f"{backend}={sweep[f'{backend}_s'] * 1e3:8.1f}ms"
                f" ({sweep[f'speedup_{backend}']:.1f}x)"
                for backend in registered_backends()
            )
        )
        echo(line)
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small CI smoke grid instead of the full one"
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_streaming.json"),
        help="where to write the JSON baseline",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats (default 3)"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the E11-style sweep on the NumPy backend beats the "
        "frozen seed path by this factor on the largest grid entry",
    )
    args = parser.parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    payload = run(grid, repeats=args.repeats)
    Path(args.output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    if args.min_speedup is not None:
        if not HAS_NUMPY:
            print("FAIL: --min-speedup requires the NumPy backend", file=sys.stderr)
            return 2
        headline = payload["grid"][-1]["e11_sweep"]["speedup_numpy"]
        if headline < args.min_speedup:
            print(
                f"FAIL: numpy streaming-sweep speedup {headline:.1f}x "
                f"< required {args.min_speedup:.1f}x",
                file=sys.stderr,
            )
            return 1
        print(f"speedup gate passed: {headline:.1f}x >= {args.min_speedup:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
