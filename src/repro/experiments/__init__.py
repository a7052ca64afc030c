"""Experiment harness: parameter sweeps, result tables, scaling fits.

Each experiment E1–E12 of DESIGN.md has a ``run_*`` function here that
produces a :class:`~repro.experiments.harness.ExperimentResult`; the
``benchmarks/`` directory wraps these in pytest-benchmark targets and prints
the resulting tables, and ``EXPERIMENTS.md`` records representative output.
"""

from repro.experiments.harness import ExperimentResult
from repro.experiments.experiment_defs import (
    run_e01_space_tradeoff,
    run_e02_passes_and_approx,
    run_e03_element_sampling,
    run_e04_covering_lemma,
    run_e05_dsc_opt_gap,
    run_e06_communication_cost,
    run_e07_reduction_disj,
    run_e08_random_arrival,
    run_e09_dmc_gap,
    run_e10_maxcover_tradeoff,
    run_e11_baselines,
    run_e12_infotheory,
    EXPERIMENT_REGISTRY,
)

__all__ = [
    "ExperimentResult",
    "run_e01_space_tradeoff",
    "run_e02_passes_and_approx",
    "run_e03_element_sampling",
    "run_e04_covering_lemma",
    "run_e05_dsc_opt_gap",
    "run_e06_communication_cost",
    "run_e07_reduction_disj",
    "run_e08_random_arrival",
    "run_e09_dmc_gap",
    "run_e10_maxcover_tradeoff",
    "run_e11_baselines",
    "run_e12_infotheory",
    "EXPERIMENT_REGISTRY",
]
