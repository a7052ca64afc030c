"""Unit tests for the Lemma 2.2 machinery."""

import pytest

from repro.lowerbound.covering_lemma import (
    coverage_shortfall_trial,
    estimate_uncovered_probability,
    expected_uncovered,
    lemma_2_2_bound,
    lemma_2_2_threshold,
    run_sweep,
)
from repro.telemetry.metrics import _ACTIVE, MetricsRegistry
from repro.utils import rng as rng_module
from repro.utils.rng import RandomSource


class TestFormulas:
    def test_threshold_formula(self):
        assert lemma_2_2_threshold(100, 100, 25, 2) == pytest.approx(
            50 * (25 / 200) ** 2
        )

    def test_bound_formula_capped(self):
        assert lemma_2_2_bound(100, 0, 25, 1) == pytest.approx(1.0)
        assert lemma_2_2_bound(100, 100, 50, 1) < 1.0

    def test_expected_uncovered(self):
        assert expected_uncovered(100, 80, 25, 2) == pytest.approx(80 * 0.0625)

    def test_invalid_universe(self):
        with pytest.raises(ValueError):
            lemma_2_2_threshold(0, 10, 1, 1)
        with pytest.raises(ValueError):
            lemma_2_2_bound(0, 10, 1, 1)
        with pytest.raises(ValueError):
            expected_uncovered(0, 10, 1, 1)


class TestTrials:
    def test_trial_counts_consistent(self):
        trial = coverage_shortfall_trial(200, 200, 50, 2, seed=1)
        assert 0 <= trial.uncovered_count <= 200
        assert trial.below_threshold == (trial.uncovered_count < trial.threshold)

    def test_k_zero_leaves_everything(self):
        trial = coverage_shortfall_trial(100, 60, 20, 0, seed=2)
        assert trial.uncovered_count == 60

    def test_independent_drops_variant(self):
        trial = coverage_shortfall_trial(150, 150, 30, 3, seed=3, independent_drops=True)
        assert 0 <= trial.uncovered_count <= 150

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            coverage_shortfall_trial(100, 50, 0, 1)
        with pytest.raises(ValueError):
            coverage_shortfall_trial(100, 500, 10, 1)
        with pytest.raises(ValueError):
            coverage_shortfall_trial(100, 50, 10, -1)

    def test_more_sets_cover_more(self):
        few = coverage_shortfall_trial(400, 400, 100, 1, seed=4)
        many = coverage_shortfall_trial(400, 400, 100, 6, seed=4)
        assert many.uncovered_count <= few.uncovered_count


class TestEstimates:
    def test_failure_probability_within_lemma_bound(self):
        # The empirical probability of the shortfall event must not exceed the
        # proved bound by more than sampling noise.
        empirical = estimate_uncovered_probability(300, 300, 75, 2, trials=100, seed=5)
        bound = lemma_2_2_bound(300, 300, 75, 2)
        assert empirical <= bound + 0.05

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            estimate_uncovered_probability(100, 100, 10, 1, trials=0)

    def test_sweep_rows(self):
        rows = run_sweep(200, 200, 50, [1, 2], trials=20, seed=6)
        assert len(rows) == 2
        assert {"k", "empirical_failure", "lemma_bound"} <= set(rows[0])


def trial_by_trial(universe_size, u_size, s, k, trials, seed, independent_drops=False):
    """The estimate as :func:`coverage_shortfall_trial` on each spawned child."""
    failures = 0
    for _ in range(trials):
        trial = coverage_shortfall_trial(
            universe_size, u_size, s, k, seed=seed.spawn(), independent_drops=independent_drops
        )
        failures += trial.below_threshold
    return failures / trials


def sweep_by_trials(universe_size, u_size, s, ks, trials, seed):
    """:func:`run_sweep`'s empirical column, trial by trial."""
    return [trial_by_trial(universe_size, u_size, s, k, trials, seed.spawn()) for k in ks]


def measured(call, seed):
    """``(result, parent state afterwards, counters)`` of ``call(source)``."""
    source = RandomSource(seed)
    registry = MetricsRegistry()
    token = _ACTIVE.set(registry)
    try:
        result = call(source)
    finally:
        _ACTIVE.reset(token)
    return result, source._rng.getstate(), registry.snapshot()["counters"]


def walks(monkeypatch):
    """Record each (n, k, rows) the pool walk draws."""
    calls = []
    walk = rng_module._replay_pool_masks

    def recorded(np, engines, n, k, rows, exact):
        calls.append((len(engines), n, k, rows))
        return walk(np, engines, n, k, rows, exact)

    monkeypatch.setattr(rng_module, "_replay_pool_masks", recorded)
    return calls


class TestOneWalkAcrossTrials:
    """The estimate drawn in one walk equals it drawn trial by trial."""

    @pytest.mark.parametrize(
        "universe_size,u_size,s,k,trials",
        [
            (600, 600, 150, 3, 40),  # E4's shape, fewer trials
            (60, 10, 10, 6, 40),  # U is covered early: the trial stops taking sets
            (64, 64, 16, 2, 80),  # n a power of two
            (65, 40, 20, 4, 30),  # n one above it
        ],
    )
    def test_estimate_matches_trial_by_trial(
        self, monkeypatch, universe_size, u_size, s, k, trials
    ):
        calls = walks(monkeypatch)
        args = (universe_size, u_size, s, k, trials)
        walked = measured(lambda source: estimate_uncovered_probability(*args, seed=source), 41)
        assert walked == measured(lambda source: trial_by_trial(*args, source), 41)
        assert walked[2]["rng.spawns"] == trials
        if rng_module.batching_numpy() is not None:
            assert calls == [(trials, universe_size, s, k)]

    def test_early_stop_counts_only_the_sets_taken(self, monkeypatch):
        calls = walks(monkeypatch)
        _, _, counters = measured(
            lambda source: estimate_uncovered_probability(60, 10, 10, 6, 40, seed=source), 5
        )
        assert counters["rng.draws"] < 40 * 6 * 10
        if rng_module.batching_numpy() is not None:
            assert calls == [(40, 60, 10, 6)]

    def test_sweep_matches_trial_by_trial(self):
        rows, state, counters = measured(
            lambda source: run_sweep(600, 300, 150, [1, 2, 4], 30, seed=source), 6
        )
        expected = measured(
            lambda source: sweep_by_trials(600, 300, 150, [1, 2, 4], 30, source), 6
        )
        assert ([row["empirical_failure"] for row in rows], state, counters) == expected

    @pytest.mark.parametrize("independent_drops,s", [(True, 150), (False, 40)])
    def test_other_draws_stay_trial_by_trial(self, monkeypatch, independent_drops, s):
        # D' drops elements independently; s = 40 of n = 600 takes
        # random.sample's set-selection branch.
        calls = walks(monkeypatch)
        args = (600, 600, s, 2, 20)
        walked = measured(
            lambda source: estimate_uncovered_probability(
                *args, seed=source, independent_drops=independent_drops
            ),
            7,
        )
        assert walked == measured(
            lambda source: trial_by_trial(*args, source, independent_drops), 7
        )
        assert calls == []

    def test_invalid_parameters_raise_before_any_draw(self):
        source = RandomSource(8)
        state = source._rng.getstate()
        with pytest.raises(ValueError, match="u_size"):
            estimate_uncovered_probability(600, 601, 150, 2, 20, seed=source)
        with pytest.raises(ValueError, match="s must"):
            estimate_uncovered_probability(600, 600, 0, 2, 20, seed=source)
        assert source._rng.getstate() == state

    def test_trial_keeps_its_loop(self, monkeypatch):
        # The single-trial API draws set by set, walk or no walk.
        calls = walks(monkeypatch)
        coverage_shortfall_trial(600, 600, 150, 4, seed=9)
        assert calls == []
