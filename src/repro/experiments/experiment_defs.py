"""The twelve experiments of DESIGN.md (the paper's reproducible claims).

Every ``run_*`` function is deterministic given its ``seed`` and returns an
:class:`~repro.experiments.harness.ExperimentResult`.  Default parameters are
sized so each experiment finishes in seconds; the benchmarks pass larger
values where the scaling story needs more range.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence

from repro.baselines import (
    EmekRosenSemiStreaming,
    IterativePruningSetCover,
    ProgressiveGreedyPasses,
    SahaGetoorGreedy,
    StoreEverythingSetCover,
)
from repro.communication.protocols.setcover_protocol import (
    FullExchangeSetCoverProtocol,
    TwoPartyAlgorithmOneProtocol,
)
from repro.communication.protocols.maxcover_protocol import (
    FullExchangeMaxCoverProtocol,
    SampledMaxCoverProtocol,
)
from repro.core.algorithm1 import AlgorithmOneConfig, StreamingSetCover
from repro.core.element_sampling import element_sample, sampling_probability
from repro.core.guessing import OptGuessingSetCover
from repro.core.maxcover_stream import StreamingMaxCoverage
from repro.core.tradeoff import (
    fit_power_law,
    theorem1_space_lower_bound,
    theorem2_pass_count,
)
from repro.experiments.harness import ExperimentResult
from repro.infotheory.distributions import JointDistribution
from repro.infotheory.entropy import conditional_mutual_information
from repro.infotheory.facts import (
    check_fact_a4,
    check_fact_chain_rule,
    check_fact_entropy_bounds,
    check_fact_mi_nonnegative,
)
from repro.lowerbound.covering_lemma import lemma_2_2_bound, run_sweep
from repro.lowerbound.dmc import DMCParameters, sample_dmc
from repro.lowerbound.dsc import DSCParameters, sample_dsc, sample_dsc_random_partition
from repro.lowerbound.properties import (
    check_remark_3_1,
    claim_4_4_bounds,
    dmc_value_gap,
    dsc_opt_gap,
    good_index_fraction,
)
from repro.lowerbound.reduction import (
    DisjViaSetCoverProtocol,
    GHDViaMaxCoverProtocol,
    evaluate_disj_reduction,
    evaluate_ghd_reduction,
)
from repro.problems.disjointness import enumerate_ddisj_support, sample_ddisj
from repro.problems.ghd import sample_dghd
from repro.setcover.exact import exact_cover_value
from repro.setcover.greedy import greedy_set_cover
from repro.setcover.instance import SetSystem
from repro.setcover.maxcover import exact_max_coverage
from repro.setcover.verify import is_feasible_cover
from repro.streaming.engine import run_streaming_algorithm
from repro.streaming.stream import StreamOrder
from repro.utils.rng import spawn_rng
from repro.utils.tables import Table
from repro.workloads.adversarial import dsc_stream_instance
from repro.workloads.random_instances import plant_cover_instance


# ---------------------------------------------------------------------------
# E1 — Theorem 2 space scaling: peak space ~ m · n^{1/alpha}
# ---------------------------------------------------------------------------
def run_e01_space_tradeoff(
    universe_sizes: Sequence[int] = (1024, 2048, 4096, 8192),
    num_sets: int = 40,
    alphas: Sequence[int] = (1, 2, 3),
    cover_size: int = 3,
    epsilon: float = 0.5,
    sampling_constant: float = 1.0,
    seed: int = 2017,
) -> ExperimentResult:
    """Measure Algorithm 1's stored projections as n grows, per alpha.

    The quantity fitted is the peak of the ``stored_incidences`` category —
    the ``Õ(m·n^{1/α})`` leading term of Lemma 3.8 (the additive ``+n`` term
    for the uncovered universe is reported separately in the table).  The
    sampling constant is reduced from the paper's 16 so the sampling rate is
    below 1 at laptop-scale n; this changes only constants, not the exponent.
    """
    rng = spawn_rng(seed)
    table = Table(
        ["alpha", "n", "m", "stored_incidences_peak", "total_peak_words", "predicted_lower_bound", "passes"],
        title="E1: Algorithm 1 stored projections vs n (per alpha)",
    )
    findings: Dict[str, Any] = {}
    for alpha in alphas:
        xs: List[float] = []
        ys: List[float] = []
        for n in universe_sizes:
            instance = plant_cover_instance(
                n, num_sets, cover_size, seed=rng.spawn()
            )
            config = AlgorithmOneConfig(
                alpha=alpha,
                opt_guess=cover_size,
                epsilon=epsilon,
                sampling_constant=sampling_constant,
                subinstance_solver="greedy",
            )
            algorithm = StreamingSetCover(config, seed=rng.spawn())
            result = run_streaming_algorithm(algorithm, instance.system)
            stored = result.space.peak_by_category.get("stored_incidences", 0)
            table.add_row(
                alpha,
                n,
                num_sets,
                stored,
                result.space.peak_words,
                theorem1_space_lower_bound(n, num_sets, alpha),
                result.passes,
            )
            xs.append(float(n))
            ys.append(float(max(stored, 1)))
        fit = fit_power_law(xs, ys)
        findings[f"alpha_{alpha}_fitted_exponent"] = round(fit.exponent, 3)
        findings[f"alpha_{alpha}_theoretical_exponent"] = round(1.0 / alpha, 3)
    return ExperimentResult(
        experiment_id="E1",
        title="Space of Algorithm 1 scales as m·n^{1/alpha} (Theorem 2)",
        table=table,
        findings=findings,
    )


# ---------------------------------------------------------------------------
# E2 — Theorem 2 pass count and approximation ratio
# ---------------------------------------------------------------------------
def run_e02_passes_and_approx(
    universe_size: int = 256,
    num_sets: int = 60,
    cover_sizes: Sequence[int] = (2, 4, 6),
    alphas: Sequence[int] = (1, 2, 3),
    epsilon: float = 0.5,
    seed: int = 2018,
) -> ExperimentResult:
    """Check passes ≤ 2α+1 (+cleanup) and solution size ≤ (α+ε)·opt."""
    rng = spawn_rng(seed)
    table = Table(
        ["alpha", "opt", "solution_size", "bound", "passes", "pass_bound", "feasible"],
        title="E2: Algorithm 1 approximation and pass count",
    )
    violations = 0
    pass_violations = 0
    rows = 0
    for alpha in alphas:
        for cover_size in cover_sizes:
            instance = plant_cover_instance(
                universe_size, num_sets, cover_size, seed=rng.spawn()
            )
            config = AlgorithmOneConfig(
                alpha=alpha,
                opt_guess=cover_size,
                epsilon=epsilon,
                subinstance_solver="exact",
            )
            algorithm = StreamingSetCover(config, seed=rng.spawn())
            result = run_streaming_algorithm(algorithm, instance.system)
            feasible = is_feasible_cover(instance.system, result.solution)
            bound = (alpha + epsilon) * cover_size
            pass_bound = theorem2_pass_count(alpha) + 1  # +1 optional clean-up
            rows += 1
            if result.solution_size > bound + 1e-9:
                violations += 1
            if result.passes > pass_bound:
                pass_violations += 1
            table.add_row(
                alpha,
                cover_size,
                result.solution_size,
                bound,
                result.passes,
                pass_bound,
                feasible,
            )
    return ExperimentResult(
        experiment_id="E2",
        title="Algorithm 1 returns ≤ (α+ε)·opt sets in ≤ 2α+1 (+1) passes",
        table=table,
        findings={
            "approx_bound_violations": violations,
            "pass_bound_violations": pass_violations,
            "rows": rows,
        },
    )


# ---------------------------------------------------------------------------
# E3 — Lemma 3.12 element sampling
# ---------------------------------------------------------------------------
def run_e03_element_sampling(
    universe_size: int = 400,
    num_sets: int = 40,
    cover_size: int = 4,
    rhos: Sequence[float] = (0.5, 0.25, 0.1),
    constants: Sequence[float] = (16.0, 4.0, 1.0),
    trials: int = 20,
    seed: int = 2019,
) -> ExperimentResult:
    """Check that covers of the sampled universe cover (1-ρ)·n of the full universe."""
    rng = spawn_rng(seed)
    table = Table(
        ["constant", "rho", "sample_rate", "avg_sample_size", "violation_rate"],
        title="E3: element sampling (Lemma 3.12) across rates and constants",
    )
    findings: Dict[str, Any] = {}
    for constant in constants:
        for rho in rhos:
            violation = 0
            sample_sizes = []
            for _ in range(trials):
                instance = plant_cover_instance(
                    universe_size, num_sets, cover_size, seed=rng.spawn()
                )
                probability = sampling_probability(
                    universe_size, num_sets, cover_size, rho, constant=constant
                )
                sample = element_sample(
                    range(universe_size), probability, seed=rng.spawn()
                )
                sample_sizes.append(len(sample))
                sampled_system = instance.system.restrict_to_elements(sample)
                # A cover of the sample (at most cover_size sets exists since the
                # planted cover covers everything).
                cover = greedy_set_cover(
                    sampled_system,
                    required_mask=sampled_system.coverage_mask(
                        range(sampled_system.num_sets)
                    ),
                )
                covered = instance.system.coverage(cover)
                if covered < (1 - rho) * universe_size:
                    violation += 1
            rate = sampling_probability(
                universe_size, num_sets, cover_size, rho, constant=constant
            )
            table.add_row(
                constant,
                rho,
                round(rate, 4),
                statistics.mean(sample_sizes),
                violation / trials,
            )
            findings[f"c{constant}_rho{rho}_violation_rate"] = violation / trials
    return ExperimentResult(
        experiment_id="E3",
        title="Element sampling preserves (1−ρ)-coverage (Lemma 3.12)",
        table=table,
        findings=findings,
    )


# ---------------------------------------------------------------------------
# E4 — Lemma 2.2 coverage concentration
# ---------------------------------------------------------------------------
def run_e04_covering_lemma(
    universe_size: int = 600,
    u_size: int = 600,
    s: int = 150,
    ks: Sequence[int] = (1, 2, 3, 4),
    trials: int = 200,
    seed: int = 2020,
) -> ExperimentResult:
    """Empirical failure probability of the Lemma 2.2 event vs the proved bound."""
    rows = run_sweep(universe_size, u_size, s, ks, trials, seed=seed)
    table = Table(
        ["k", "empirical_failure", "lemma_bound", "threshold", "expected_uncovered"],
        title="E4: Lemma 2.2 shortfall probability vs bound",
    )
    all_within = True
    for row in rows:
        table.add_row(
            row["k"],
            row["empirical_failure"],
            row["lemma_bound"],
            round(row["threshold"], 3),
            round(row["expected_uncovered"], 3),
        )
        if row["empirical_failure"] > row["lemma_bound"] + 0.05:
            all_within = False
    return ExperimentResult(
        experiment_id="E4",
        title="Random (n−s)-subsets leave the predicted residue uncovered (Lemma 2.2)",
        table=table,
        findings={"all_within_bound": all_within},
    )


# ---------------------------------------------------------------------------
# E5 — Lemma 3.2 / Remark 3.1: the D_SC optimum gap
# ---------------------------------------------------------------------------
def run_e05_dsc_opt_gap(
    universe_size: int = 900,
    num_pairs: int = 8,
    alpha: int = 2,
    t: Optional[int] = 5,
    trials: int = 6,
    seed: int = 2021,
) -> ExperimentResult:
    """Exact optima of D_SC samples: 2 when θ=1, > 2α when θ=0.

    The Lemma 3.2 gap is asymptotic; at finite scale it requires the gadget
    size ``t`` to be well below the unscaled ``(n/log m)^{1/α}`` (the paper's
    own definition carries a 2^{-15} constant for exactly this reason).  The
    defaults use an explicit small ``t`` so the leftover block of every
    non-special pair is large enough that no 2α sets can cover the universe,
    while the exact solver stays fast.
    """
    rng = spawn_rng(seed)
    parameters = DSCParameters(
        universe_size=universe_size, num_pairs=num_pairs, alpha=alpha, t=t
    )
    table = Table(
        ["trial", "theta", "opt", "strong_gap (>2α)", "weak_gap (θ separation)", "remark_3_1_ok"],
        title="E5: optimum gap of the hard distribution D_SC",
    )
    strong_gap_failures = 0
    weak_gap_failures = 0
    theta1_opts: List[int] = []
    theta0_opts: List[int] = []
    for trial in range(trials):
        theta = trial % 2
        instance = sample_dsc(parameters, seed=rng.spawn(), theta=theta)
        verdict = dsc_opt_gap(instance, alpha=alpha)
        remark_ok = all(check.holds for check in check_remark_3_1(instance))
        if not verdict["respects_gap"]:
            strong_gap_failures += 1
        if not verdict["respects_weak_gap"]:
            weak_gap_failures += 1
        (theta1_opts if theta == 1 else theta0_opts).append(verdict["opt"])
        table.add_row(
            trial,
            theta,
            verdict["opt"],
            verdict["respects_gap"],
            verdict["respects_weak_gap"],
            remark_ok,
        )
    return ExperimentResult(
        experiment_id="E5",
        title="D_SC optimum is 2 when θ=1 and > 2α when θ=0 (Lemma 3.2)",
        table=table,
        findings={
            "strong_gap_failures": strong_gap_failures,
            "weak_gap_failures": weak_gap_failures,
            "trials": trials,
            "theta1_max_opt": max(theta1_opts) if theta1_opts else None,
            "theta0_min_opt": min(theta0_opts) if theta0_opts else None,
        },
    )


# ---------------------------------------------------------------------------
# E6 — Communication cost on D_SC: full exchange vs Algorithm-1 protocol
# ---------------------------------------------------------------------------
def run_e06_communication_cost(
    universe_sizes: Sequence[int] = (256, 512, 1024, 2048),
    num_pairs: int = 8,
    alpha: int = 2,
    trials: int = 4,
    sampling_constant: float = 1.0,
    seed: int = 2022,
) -> ExperimentResult:
    """Compare the Θ(mn)-bit trivial protocol with the Õ(α·m·n^{1/α})-bit one."""
    rng = spawn_rng(seed)
    table = Table(
        ["n", "full_exchange_bits", "algorithm1_bits", "ratio", "mean_est_theta0", "mean_est_theta1"],
        title="E6: two-party communication on D_SC",
    )
    ratios: List[float] = []
    xs: List[float] = []
    alg1_bits_series: List[float] = []
    estimates_theta0: List[float] = []
    estimates_theta1: List[float] = []
    for n in universe_sizes:
        parameters = DSCParameters(universe_size=n, num_pairs=num_pairs, alpha=alpha)
        full_bits = []
        alg1_bits = []
        local_estimates: Dict[int, List[float]] = {0: [], 1: []}
        for trial in range(trials):
            theta = trial % 2
            instance = sample_dsc(parameters, seed=rng.spawn(), theta=theta)
            alice, bob = instance.communication_inputs()
            full = FullExchangeSetCoverProtocol(solver="greedy").execute(alice, bob)
            approx = TwoPartyAlgorithmOneProtocol(
                alpha=alpha,
                opt_guess=2,
                seed=rng.spawn(),
                subinstance_solver="greedy",
                sampling_constant=sampling_constant,
            ).execute(alice, bob)
            full_bits.append(full.total_bits)
            alg1_bits.append(approx.total_bits)
            estimate = float(approx.output)
            local_estimates[theta].append(estimate)
            if theta == 0:
                estimates_theta0.append(estimate)
            else:
                estimates_theta1.append(estimate)
        mean_full = statistics.mean(full_bits)
        mean_alg1 = statistics.mean(alg1_bits)
        ratios.append(mean_full / mean_alg1 if mean_alg1 else float("inf"))
        xs.append(float(n))
        alg1_bits_series.append(mean_alg1)
        table.add_row(
            n,
            round(mean_full, 1),
            round(mean_alg1, 1),
            round(mean_full / mean_alg1, 3) if mean_alg1 else float("inf"),
            round(statistics.mean(local_estimates[0]), 2) if local_estimates[0] else "-",
            round(statistics.mean(local_estimates[1]), 2) if local_estimates[1] else "-",
        )
    # The α-approximate protocol's estimates must separate the two θ cases on
    # average (the decision the lower bound shows is expensive to make).
    separation = (
        statistics.mean(estimates_theta0) - statistics.mean(estimates_theta1)
        if estimates_theta0 and estimates_theta1
        else 0.0
    )
    findings: Dict[str, Any] = {
        "ratio_increases_with_n": ratios == sorted(ratios) or ratios[-1] > ratios[0],
        "estimate_separation_theta0_minus_theta1": round(separation, 3),
    }
    if len(xs) >= 2:
        findings["alg1_bits_exponent_vs_n"] = round(
            fit_power_law(xs, alg1_bits_series).exponent, 3
        )
    return ExperimentResult(
        experiment_id="E6",
        title="Protocol cost on D_SC: trivial Θ(mn) vs Algorithm-1 Õ(α·m·n^{1/α})",
        table=table,
        findings=findings,
    )


# ---------------------------------------------------------------------------
# E7 — Lemma 3.4 reduction correctness
# ---------------------------------------------------------------------------
def run_e07_reduction_disj(
    universe_size: int = 240,
    num_pairs: int = 5,
    alpha: int = 2,
    t: Optional[int] = 24,
    trials: int = 10,
    seed: int = 2023,
) -> ExperimentResult:
    """Solve Disj via a set cover oracle on the embedded D_SC instance.

    With an exact inner oracle the decision threshold 2 is justified at any
    scale (a pair covers the universe iff its embedded Disj instance is
    disjoint); the paper's 2α threshold additionally needs the asymptotic
    Lemma 3.2 gap, which E5 checks separately.  ``t`` is large enough that the
    embedded sets concentrate (mixed pairs cannot accidentally cover [n]).
    """
    rng = spawn_rng(seed)
    parameters = DSCParameters(
        universe_size=universe_size, num_pairs=num_pairs, alpha=alpha, t=t
    )
    t = parameters.resolved_t()
    inner = FullExchangeSetCoverProtocol(solver="exact")
    reduction = DisjViaSetCoverProtocol(
        inner, parameters, seed=rng.spawn(), decision_threshold=2
    )
    instances = [sample_ddisj(t, seed=rng.spawn()) for _ in range(trials)]
    error_rate, average_bits = evaluate_disj_reduction(reduction, instances)
    table = Table(
        ["t", "trials", "error_rate", "avg_bits"],
        title="E7: Disj solved through the Lemma 3.4 embedding",
    )
    table.add_row(t, trials, error_rate, round(average_bits, 1))
    return ExperimentResult(
        experiment_id="E7",
        title="The Lemma 3.4 reduction answers Disj correctly",
        table=table,
        findings={"error_rate": error_rate, "t": t},
    )


# ---------------------------------------------------------------------------
# E8 — Random partitioning / random arrival (Lemma 3.7, Theorem 1)
# ---------------------------------------------------------------------------
def run_e08_random_arrival(
    universe_size: int = 48,
    num_pairs: int = 8,
    alpha: int = 2,
    trials: int = 8,
    seed: int = 2024,
) -> ExperimentResult:
    """Good-index fraction under D_SC^rnd and Algorithm 1 on random vs adversarial order."""
    rng = spawn_rng(seed)
    parameters = DSCParameters(
        universe_size=universe_size, num_pairs=num_pairs, alpha=alpha
    )
    fractions = []
    for _ in range(trials):
        _instance, _alice, _bob, assignment = sample_dsc_random_partition(
            parameters, seed=rng.spawn()
        )
        fractions.append(good_index_fraction(assignment, num_pairs))
    mean_fraction = statistics.mean(fractions)

    # Algorithm 1 on the same hard instance under both stream orders.
    table = Table(
        ["order", "theta", "solution_size", "passes", "peak_space"],
        title="E8: random partition statistics and stream-order comparison",
    )
    order_sizes: Dict[str, List[int]] = {"adversarial": [], "random": []}
    for trial in range(trials):
        theta = trial % 2
        instance = dsc_stream_instance(
            universe_size, num_pairs, alpha, theta=theta, seed=rng.spawn()
        )
        for order in (StreamOrder.ADVERSARIAL, StreamOrder.RANDOM):
            config = AlgorithmOneConfig(
                alpha=alpha, opt_guess=2, epsilon=0.5, subinstance_solver="greedy"
            )
            algorithm = StreamingSetCover(config, seed=rng.spawn())
            result = run_streaming_algorithm(
                algorithm,
                instance.system,
                order=order,
                seed=rng.spawn(),
                verify_solution=False,
            )
            order_sizes[order.value].append(result.solution_size)
            table.add_row(
                order.value,
                theta,
                result.solution_size,
                result.passes,
                result.space.peak_words,
            )
    mean_adversarial = statistics.mean(order_sizes["adversarial"])
    mean_random = statistics.mean(order_sizes["random"])
    return ExperimentResult(
        experiment_id="E8",
        title="Random partitioning keeps ≈ m/2 good indices; random order does not help",
        table=table,
        findings={
            "mean_good_index_fraction": round(mean_fraction, 3),
            "mean_solution_adversarial": mean_adversarial,
            "mean_solution_random": mean_random,
            "random_order_advantage": round(mean_adversarial - mean_random, 3),
        },
    )


# ---------------------------------------------------------------------------
# E9 — Lemma 4.3 / Claim 4.4: the D_MC value gap
# ---------------------------------------------------------------------------
def run_e09_dmc_gap(
    num_pairs: int = 5,
    epsilons: Sequence[float] = (0.35, 0.25),
    trials: int = 4,
    seed: int = 2025,
) -> ExperimentResult:
    """Exact max-coverage values of D_MC samples straddle τ according to θ."""
    rng = spawn_rng(seed)
    table = Table(
        ["epsilon", "theta", "opt_value", "tau", "correct_side", "matched_pair"],
        title="E9: maximum coverage gap of D_MC (k = 2)",
    )
    side_failures = 0
    claim_failures = 0
    rows = 0
    for epsilon in epsilons:
        parameters = DMCParameters(num_pairs=num_pairs, epsilon=epsilon)
        for trial in range(trials):
            theta = trial % 2
            instance = sample_dmc(parameters, seed=rng.spawn(), theta=theta)
            verdict = dmc_value_gap(instance)
            claims = claim_4_4_bounds(instance)
            rows += 1
            if not verdict["on_correct_side"]:
                side_failures += 1
            if not (
                claims["matched_pairs_cover_u2"] and claims["mixed_pairs_below_bound"]
            ):
                claim_failures += 1
            table.add_row(
                epsilon,
                theta,
                verdict["opt_value"],
                round(verdict["tau"], 2),
                verdict["on_correct_side"],
                verdict["is_matched_pair"],
            )
    return ExperimentResult(
        experiment_id="E9",
        title="D_MC optimum differs by (1±Θ(ε))·τ with θ (Lemma 4.3, Claim 4.4)",
        table=table,
        findings={
            "side_failures": side_failures,
            "claim_4_4_failures": claim_failures,
            "rows": rows,
        },
    )


# ---------------------------------------------------------------------------
# E10 — Max coverage space/communication grows as m/ε²
# ---------------------------------------------------------------------------
def run_e10_maxcover_tradeoff(
    num_topics: int = 800,
    num_sets: int = 60,
    k: int = 2,
    epsilons: Sequence[float] = (0.5, 0.35, 0.25, 0.18),
    seed: int = 2026,
    ghd_reduction_trials: int = 4,
    ghd_num_pairs: int = 4,
    ghd_epsilon: float = 0.35,
) -> ExperimentResult:
    """Streaming max coverage space vs ε, plus the Lemma 4.5 GHD reduction."""
    rng = spawn_rng(seed)
    from repro.workloads.coverage import topic_coverage_instance

    instance = topic_coverage_instance(num_topics, num_sets, communities=k, seed=rng.spawn())
    table = Table(
        ["epsilon", "peak_space_words", "estimate", "true_opt", "relative_error"],
        title="E10: streaming (1−ε)-approx max coverage space vs ε",
    )
    _, true_opt = exact_max_coverage(instance.system, k)
    xs: List[float] = []
    ys: List[float] = []
    for epsilon in epsilons:
        algorithm = StreamingMaxCoverage(
            k=k, epsilon=epsilon, solver="greedy", seed=rng.spawn()
        )
        result = run_streaming_algorithm(
            algorithm, instance.system, verify_solution=False
        )
        estimate = result.estimated_value or 0.0
        relative_error = abs(estimate - true_opt) / true_opt if true_opt else 0.0
        table.add_row(
            epsilon,
            result.space.peak_words,
            round(estimate, 1),
            true_opt,
            round(relative_error, 3),
        )
        xs.append(1.0 / epsilon)
        ys.append(float(max(result.space.peak_words, 1)))
    fit = fit_power_law(xs, ys)

    # Lemma 4.5 reduction: GHD answered through a max coverage oracle.
    parameters = DMCParameters(num_pairs=ghd_num_pairs, epsilon=ghd_epsilon)
    inner = FullExchangeMaxCoverProtocol(k=2, solver="exact")
    reduction = GHDViaMaxCoverProtocol(inner, parameters, seed=rng.spawn())
    a, b = parameters.resolved_set_sizes()
    ghd_instances = [
        sample_dghd(parameters.t1, a, b, seed=rng.spawn())
        for _ in range(ghd_reduction_trials)
    ]
    ghd_error, _bits = evaluate_ghd_reduction(reduction, ghd_instances)
    return ExperimentResult(
        experiment_id="E10",
        title="(1−ε)-approx max coverage space grows as 1/ε² (Theorems 4/5)",
        table=table,
        findings={
            "space_exponent_vs_inverse_epsilon": round(fit.exponent, 3),
            "theoretical_exponent": 2.0,
            "ghd_reduction_error_rate": ghd_error,
        },
    )


# ---------------------------------------------------------------------------
# E11 — Positioning against prior streaming algorithms
# ---------------------------------------------------------------------------
def run_e11_baselines(
    universe_size: int = 2048,
    num_sets: int = 60,
    cover_size: int = 4,
    alpha: int = 2,
    epsilon: float = 1.0,
    sampling_constant: float = 1.0,
    seed: int = 2027,
) -> ExperimentResult:
    """Pass/space/approximation of Algorithm 1 vs prior streaming algorithms."""
    rng = spawn_rng(seed)
    instance = plant_cover_instance(universe_size, num_sets, cover_size, seed=rng.spawn())
    offline_opt = instance.planted_opt or exact_cover_value(instance.system)

    algorithms = [
        (
            "algorithm1 (one-shot pruning)",
            StreamingSetCover(
                AlgorithmOneConfig(
                    alpha=alpha,
                    opt_guess=offline_opt,
                    epsilon=epsilon,
                    sampling_constant=sampling_constant,
                    subinstance_solver="greedy",
                ),
                seed=rng.spawn(),
            ),
        ),
        (
            "har-peled (iterative pruning)",
            IterativePruningSetCover(
                alpha=alpha,
                opt_guess=offline_opt,
                epsilon=epsilon,
                sampling_constant=sampling_constant,
                seed=rng.spawn(),
            ),
        ),
        ("demaine progressive greedy", ProgressiveGreedyPasses(num_passes=2 * alpha)),
        ("saha-getoor single pass", SahaGetoorGreedy()),
        ("emek-rosen semi-streaming", EmekRosenSemiStreaming()),
        ("store everything", StoreEverythingSetCover(solver="greedy")),
    ]
    table = Table(
        ["algorithm", "solution_size", "approx_ratio", "passes", "peak_space_words"],
        title="E11: streaming set cover algorithms on a planted-cover workload",
    )
    findings: Dict[str, Any] = {"offline_opt": offline_opt}
    for label, algorithm in algorithms:
        result = run_streaming_algorithm(
            algorithm, instance.system, verify_solution=False
        )
        ratio = result.solution_size / offline_opt if offline_opt else float("inf")
        table.add_row(
            label,
            result.solution_size,
            round(ratio, 2),
            result.passes,
            result.space.peak_words,
        )
        key = label.split(" ")[0].replace("-", "_")
        findings[f"{key}_space"] = result.space.peak_words
        findings[f"{key}_ratio"] = round(ratio, 3)
    return ExperimentResult(
        experiment_id="E11",
        title="Algorithm 1 vs prior streaming set cover algorithms",
        table=table,
        findings=findings,
    )


# ---------------------------------------------------------------------------
# E12 — Information-theory toolkit and the Disj information-cost gap
# ---------------------------------------------------------------------------
def run_e12_infotheory(
    t: int = 3,
    seed: int = 2028,
) -> ExperimentResult:
    """Exact information quantities on D_Disj at small t, and four Appendix A facts.

    The facts checked on the joint of D_Disj are A.1-(1), A.1-(2), A.1-(4)
    and A.4.
    """
    # Build the exact joint of (A, B, Z) under D_Disj.
    pmf: Dict[tuple, float] = {}
    for alice, bob, z, probability in enumerate_ddisj_support(t):
        key = (tuple(sorted(alice)), tuple(sorted(bob)), z)
        pmf[key] = pmf.get(key, 0.0) + probability
    joint = JointDistribution(["A", "B", "Z"], pmf)

    # Information a trivial transcript (Alice's whole set) reveals.
    transcript_joint = joint.map_variable("Z", "Z", lambda z: z)
    revealed = conditional_mutual_information(joint, ["A"], ["A"], ["B"])

    facts = [
        check_fact_entropy_bounds(joint, "A"),
        check_fact_mi_nonnegative(joint, ["A"], ["B"]),
        check_fact_chain_rule(joint, "A", "B", "Z"),
        check_fact_a4(joint, "A", "B", "Z"),
    ]
    table = Table(
        ["quantity", "value"],
        title="E12: exact information quantities on D_Disj (small t)",
    )
    table.add_row("t", t)
    table.add_row("H(A)-style transcript information I(A:A|B)", round(revealed, 4))
    table.add_row("I(A:B)", round(
        conditional_mutual_information(joint, ["A"], ["B"], []), 4
    ))
    table.add_row("I(A:B|Z)", round(
        conditional_mutual_information(joint, ["A"], ["B"], ["Z"]), 4
    ))
    for fact in facts:
        table.add_row(fact.name, f"lhs={fact.lhs:.4f} rhs={fact.rhs:.4f} holds={fact.holds}")
    all_hold = all(fact.holds for fact in facts)
    return ExperimentResult(
        experiment_id="E12",
        title="Information-theory facts (Appendix A) verified on D_Disj",
        table=table,
        findings={
            "all_facts_hold": all_hold,
            "transcript_information_lower_bound": round(revealed, 4),
        },
    )


#: Short human-readable descriptions (shown by ``repro list`` and the
#: runtime scenario registry).
EXPERIMENT_DESCRIPTIONS: Dict[str, str] = {
    "E1": "Algorithm 1 space scales as m*n^(1/alpha) (Theorem 2)",
    "E2": "Algorithm 1 pass count and approximation bounds (Theorem 2)",
    "E3": "Element sampling preserves coverage (Lemma 3.12)",
    "E4": "Coverage concentration of random large sets (Lemma 2.2)",
    "E5": "Optimum gap of the hard distribution D_SC (Lemma 3.2)",
    "E6": "Two-party communication cost on D_SC (Theorem 3)",
    "E7": "Disjointness via a set cover oracle (Lemma 3.4)",
    "E8": "Random partitioning / random arrival robustness (Lemma 3.7)",
    "E9": "Maximum coverage gap of D_MC (Lemma 4.3 / Claim 4.4)",
    "E10": "Max coverage space grows as m/eps^2 (Theorems 4/5)",
    "E11": "Algorithm 1 vs prior streaming algorithms",
    "E12": "Information-theory facts and D_Disj quantities (Appendix A)",
}


#: Registry used by the benchmark harness and the examples.
EXPERIMENT_REGISTRY = {
    "E1": run_e01_space_tradeoff,
    "E2": run_e02_passes_and_approx,
    "E3": run_e03_element_sampling,
    "E4": run_e04_covering_lemma,
    "E5": run_e05_dsc_opt_gap,
    "E6": run_e06_communication_cost,
    "E7": run_e07_reduction_disj,
    "E8": run_e08_random_arrival,
    "E9": run_e09_dmc_gap,
    "E10": run_e10_maxcover_tradeoff,
    "E11": run_e11_baselines,
    "E12": run_e12_infotheory,
}
