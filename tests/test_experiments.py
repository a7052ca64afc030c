"""Tests for the experiment harness and (scaled-down) experiment runners."""

import pytest

from repro.experiments.harness import ExperimentResult
from repro.experiments.experiment_defs import (
    EXPERIMENT_REGISTRY,
    run_e02_passes_and_approx,
    run_e03_element_sampling,
    run_e04_covering_lemma,
    run_e05_dsc_opt_gap,
    run_e07_reduction_disj,
    run_e09_dmc_gap,
    run_e12_infotheory,
)
from repro.utils.tables import Table


class TestHarness:
    def test_experiment_result_render(self):
        table = Table(["x"], title="demo")
        table.add_row(1)
        result = ExperimentResult("E0", "demo experiment", table, {"k": 3})
        text = result.render()
        assert "E0" in text and "demo experiment" in text and "k = 3" in text

    def test_registry_complete(self):
        assert set(EXPERIMENT_REGISTRY) == {f"E{i}" for i in range(1, 13)}


class TestScaledDownExperiments:
    """Each experiment runs at reduced scale and its key findings hold."""

    def test_e02_bounds_hold(self):
        result = run_e02_passes_and_approx(
            universe_size=120, num_sets=30, cover_sizes=(2, 4), alphas=(1, 2), seed=1
        )
        assert result.findings["approx_bound_violations"] == 0
        assert result.findings["pass_bound_violations"] == 0

    def test_e03_standard_constant_never_violates(self):
        result = run_e03_element_sampling(
            universe_size=200,
            num_sets=25,
            cover_size=3,
            rhos=(0.5, 0.25),
            constants=(16.0,),
            trials=5,
            seed=2,
        )
        assert all(
            rate == 0.0
            for key, rate in result.findings.items()
            if key.startswith("c16.0")
        )

    def test_e04_within_lemma_bound(self):
        result = run_e04_covering_lemma(
            universe_size=300, u_size=300, s=75, ks=(1, 2), trials=60, seed=3
        )
        assert result.findings["all_within_bound"]

    def test_e05_weak_gap_always_holds(self):
        result = run_e05_dsc_opt_gap(
            universe_size=400, num_pairs=5, alpha=2, t=5, trials=4, seed=4
        )
        assert result.findings["weak_gap_failures"] == 0
        assert result.findings["theta1_max_opt"] <= 2
        assert result.findings["theta0_min_opt"] >= 3

    def test_e07_reduction_low_error(self):
        result = run_e07_reduction_disj(
            universe_size=160, num_pairs=4, alpha=2, t=16, trials=6, seed=5
        )
        assert result.findings["error_rate"] <= 1 / 6

    def test_e09_dmc_gap(self):
        result = run_e09_dmc_gap(num_pairs=3, epsilons=(0.4,), trials=2, seed=6)
        assert result.findings["side_failures"] == 0
        assert result.findings["claim_4_4_failures"] == 0

    def test_e12_facts_hold(self):
        result = run_e12_infotheory(t=3)
        assert result.findings["all_facts_hold"]
        assert result.findings["transcript_information_lower_bound"] > 0
