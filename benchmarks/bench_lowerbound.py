"""Micro-benchmark for the batched lower-bound sampler stack.

Measures disjointness gadget collections and D_SC / D_MC instance sampling
along two paths:

* **batched** — the current samplers: bulk
  :meth:`~repro.utils.rng.RandomSource.random_array` float draws (decoded
  exactly from MT19937 words) with packed-bit mask assembly.
* **loop** — the same samplers with vectorization disabled
  (``REPRO_SAMPLER_BATCH=off``): the identical float stream transformed by
  per-draw Python loops.

Before anything is timed, every batched sample is asserted **bit-identical**
to its loop-path sample (full instance equality including materialised
mapping provenance) — the per-draw form of the sampler protocol is what the
batched path must reproduce exactly — and the timed D_SC sample is checked
for the structure its parameters fix (sizes, and each pair's union missing
exactly its mapped intersection).

Writes the results as JSON (default ``BENCH_lowerbound.json`` at the repo
root, the committed baseline).  Run it directly::

    PYTHONPATH=src python benchmarks/bench_lowerbound.py            # full grid
    PYTHONPATH=src python benchmarks/bench_lowerbound.py --quick    # CI smoke grid

``--baseline BENCH_lowerbound.json`` gates the run (see ``microbench.py``)
on batched D_SC sampling at the E5-scale entry, the experiment family
behind E5–E8's hard instances.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.lowerbound.dmc import DMCParameters, sample_dmc
from repro.lowerbound.dsc import DSCInstance, DSCParameters, sample_dsc
from repro.problems.disjointness import sample_ddisj_no, sample_ddisj_no_bulk
from repro.utils.bitset import bitset_size, universe_mask
from repro.utils.env import env_overrides
from repro.utils.rng import spawn_rng

import microbench
from microbench import best_of, grid_entry


#: Forces the current samplers onto the per-draw loop transforms.
LOOP_PATH = {"REPRO_SAMPLER_BATCH": "off"}


def _dsc_fingerprint(instance: DSCInstance) -> tuple:
    return (
        instance.theta,
        instance.special_index,
        tuple(instance.alice_sets),
        tuple(instance.bob_sets),
        tuple(instance.disjointness),
        tuple(instance.mappings),
    )


def _assert_dsc_identity(parameters: DSCParameters, seeds) -> None:
    """Batched sampling must be bit-identical to the loop path, per seed."""
    for seed in seeds:
        for theta in (0, 1):
            batched = sample_dsc(parameters, seed=seed, theta=theta)
            with env_overrides(LOOP_PATH):
                looped = sample_dsc(parameters, seed=seed, theta=theta)
            assert _dsc_fingerprint(batched) == _dsc_fingerprint(looped), (
                f"D_SC batched/loop divergence at seed={seed}, theta={theta}"
            )


def _assert_dmc_identity(parameters: DMCParameters, seeds) -> None:
    for seed in seeds:
        for theta in (0, 1):
            batched = sample_dmc(parameters, seed=seed, theta=theta)
            with env_overrides(LOOP_PATH):
                looped = sample_dmc(parameters, seed=seed, theta=theta)
            assert batched == looped, (
                f"D_MC batched/loop divergence at seed={seed}, theta={theta}"
            )


def _assert_dsc_structure(instance: DSCInstance, parameters: DSCParameters) -> None:
    """A theta = 1 sample has the shape its parameters fix."""
    m = parameters.num_pairs
    assert instance.universe_size == parameters.universe_size
    assert instance.num_pairs == m
    assert len(instance.alice_sets) == len(instance.bob_sets) == m
    assert instance.theta == 1 and 0 <= instance.special_index < m
    full = universe_mask(instance.universe_size)
    for index in range(m):
        pair = instance.disjointness[index]
        assert pair.t == parameters.resolved_t()
        expected = full & ~instance.mappings[index].extend_mask(pair.intersection)
        assert instance.pair_union_mask(index) == expected, (
            f"pair {index} union structure broken"
        )


def bench_disjointness(t: int, count: int, seed: int, repeats: int) -> Dict[str, object]:
    def run_loop():
        rng = spawn_rng(seed)
        return [sample_ddisj_no(t, seed=rng) for _ in range(count)]

    bulk = sample_ddisj_no_bulk(t, count, seed=seed)
    with env_overrides(LOOP_PATH):
        assert bulk == run_loop(), "disjointness bulk/loop divergence"
    assert all(inst.t == t and inst.planted_element is not None for inst in bulk)

    batched_s = best_of(lambda: sample_ddisj_no_bulk(t, count, seed=seed), repeats)[1]
    with env_overrides(LOOP_PATH):
        loop_s = best_of(run_loop, repeats)[1]
    return {
        "kind": "disjointness",
        "t": t,
        "count": count,
        "batched_s": batched_s,
        "loop_s": loop_s,
    }


def bench_dsc(
    n: int, m: int, t: int, seed: int, repeats: int, e5_scale: bool = False
) -> Dict[str, object]:
    parameters = DSCParameters(universe_size=n, num_pairs=m, alpha=2, t=t)
    _assert_dsc_identity(parameters, seeds=(seed, seed + 1))
    batched = sample_dsc(parameters, seed=seed, theta=1)
    _assert_dsc_structure(batched, parameters)

    batched_s = best_of(lambda: sample_dsc(parameters, seed=seed, theta=1), repeats)[1]
    with env_overrides(LOOP_PATH):
        loop_s = best_of(lambda: sample_dsc(parameters, seed=seed, theta=1), repeats)[1]
    incidences = sum(bitset_size(mask) for mask in batched.alice_sets + batched.bob_sets)
    return {
        "kind": "dsc",
        "n": n,
        "m": m,
        "t": t,
        "e5_scale": e5_scale,
        "incidences": incidences,
        "batched_s": batched_s,
        "loop_s": loop_s,
    }


def bench_dmc(
    m: int, epsilon: float, seed: int, repeats: int
) -> Dict[str, object]:
    parameters = DMCParameters(num_pairs=m, epsilon=epsilon)
    _assert_dmc_identity(parameters, seeds=(seed, seed + 1))
    batched_s = best_of(lambda: sample_dmc(parameters, seed=seed, theta=1), repeats)[1]
    with env_overrides(LOOP_PATH):
        loop_s = best_of(lambda: sample_dmc(parameters, seed=seed, theta=1), repeats)[1]
    return {
        "kind": "dmc",
        "m": m,
        "epsilon": epsilon,
        "t1": parameters.t1,
        "t2": parameters.t2,
        "batched_s": batched_s,
        "loop_s": loop_s,
    }


#: The E5-scale configuration: the D_SC distribution of experiment E5 (alpha
#: = 2, explicit small gadget) at benchmark scale, the entry the CI gate
#: reads.
E5_SCALE = dict(n=2048, m=64, t=8)

FULL_GRID = [
    ("disjointness", dict(t=4096, count=64, seed=1)),
    ("dsc", dict(n=512, m=16, t=6, seed=1)),
    ("dsc", dict(n=1024, m=32, t=7, seed=1)),
    ("dsc", dict(seed=1, e5_scale=True, **E5_SCALE)),
    ("dmc", dict(m=16, epsilon=0.1, seed=1)),
]

QUICK_GRID = [
    ("disjointness", dict(t=1024, count=32, seed=1)),
    ("dsc", dict(seed=1, e5_scale=True, **E5_SCALE)),
    ("dmc", dict(m=8, epsilon=0.1, seed=1)),
]


def run(grid, repeats: int = 3, echo=print) -> Dict[str, object]:
    payload = microbench.new_payload("bench_lowerbound/v2")
    runners = {"disjointness": bench_disjointness, "dsc": bench_dsc, "dmc": bench_dmc}
    for kind, kwargs in grid:
        entry = runners[kind](repeats=repeats, **kwargs)
        payload["grid"].append(entry)
        label = {
            "disjointness": lambda e: f"disj t={e['t']:>5} x{e['count']}",
            "dsc": lambda e: f"dsc  n={e['n']:>5} m={e['m']:>4} t={e['t']}",
            "dmc": lambda e: f"dmc  t2={e['t2']:>4} m={e['m']:>4}",
        }[kind](entry)
        echo(
            f"{label}  batched={entry['batched_s'] * 1e3:8.1f}ms  "
            f"loop={entry['loop_s'] * 1e3:8.1f}ms"
        )
    return payload


def gated_times(payload: Mapping[str, object]) -> Dict[str, Optional[float]]:
    """Batched D_SC sampling at the E5-scale entry."""
    entry = grid_entry(payload, kind="dsc", e5_scale=True)
    return {"D_SC sampling E5 scale batched": entry.get("batched_s")}


def main(argv: Optional[List[str]] = None) -> int:
    parser = microbench.argument_parser(__doc__.splitlines()[0], "BENCH_lowerbound.json")
    args = parser.parse_args(argv)
    committed = microbench.load_baseline(args.baseline)
    payload = run(QUICK_GRID if args.quick else FULL_GRID, repeats=args.repeats)
    return microbench.finish(payload, args.output, committed, gated_times)


if __name__ == "__main__":
    sys.exit(main())
