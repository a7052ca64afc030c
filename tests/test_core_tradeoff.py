"""Unit tests for the tradeoff bound formulas and power-law fitting."""

import math

import pytest

from repro.core.tradeoff import (
    PowerLawFit,
    demaine_space_bound,
    dsc_parameter_t,
    dsc_parameter_t_unscaled,
    exact_solution_lower_bound,
    fit_power_law,
    har_peled_space_bound,
    nisan_lower_bound,
    theorem1_space_lower_bound,
    theorem2_pass_count,
    theorem2_space_upper_bound,
    theorem4_maxcover_space_lower_bound,
    tradeoff_table,
)


class TestBoundFormulas:
    def test_theorem1_alpha_one_is_linear(self):
        assert theorem1_space_lower_bound(1000, 50, 1) == pytest.approx(50 * 1000)

    def test_theorem1_decreases_with_alpha(self):
        values = [theorem1_space_lower_bound(4096, 100, a) for a in (1, 2, 4)]
        assert values == sorted(values, reverse=True)

    def test_theorem1_decreases_with_passes(self):
        one = theorem1_space_lower_bound(1024, 10, 2, passes=1)
        four = theorem1_space_lower_bound(1024, 10, 2, passes=4)
        assert four == pytest.approx(one / 4)

    def test_theorem2_upper_bound_above_lower_bound(self):
        for alpha in (1, 2, 3, 4):
            lower = theorem1_space_lower_bound(4096, 100, alpha)
            upper = theorem2_space_upper_bound(4096, 100, alpha, 0.5)
            assert upper >= lower

    def test_theorem2_pass_count(self):
        assert theorem2_pass_count(1) == 3
        assert theorem2_pass_count(5) == 11

    def test_theorem4_epsilon_scaling(self):
        half = theorem4_maxcover_space_lower_bound(100, 0.5)
        quarter = theorem4_maxcover_space_lower_bound(100, 0.25)
        assert quarter == pytest.approx(4 * half)

    def test_nisan_and_exact_bounds(self):
        assert nisan_lower_bound(100, 2) == 50
        assert exact_solution_lower_bound(100, 10, 2) == 500

    def test_har_peled_weaker_than_algorithm1(self):
        # The iterative-pruning bound has a larger exponent, so it is larger
        # for alpha >= 3 at big n.
        ours = theorem1_space_lower_bound(2 ** 20, 100, 4)
        theirs = har_peled_space_bound(2 ** 20, 100, 4)
        assert theirs > ours

    def test_demaine_exponent(self):
        assert demaine_space_bound(2 ** 16, 10, 2) == pytest.approx(10 * 2 ** 16)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            theorem1_space_lower_bound(10, 10, 0)
        with pytest.raises(ValueError):
            theorem2_space_upper_bound(10, 10, 1, 0.0)
        with pytest.raises(ValueError):
            theorem2_pass_count(0)
        with pytest.raises(ValueError):
            theorem4_maxcover_space_lower_bound(10, 2.0)


class TestDscParameter:
    def test_unscaled_value(self):
        value = dsc_parameter_t_unscaled(1024, 100, 2)
        assert value == pytest.approx((1024 / math.log(100)) ** 0.5)

    def test_scaled_at_least_one(self):
        assert dsc_parameter_t(1024, 100, 2) >= 1

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            dsc_parameter_t(1024, 100, 0)


class TestPowerLawFit:
    def test_exact_power_law_recovered(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        ys = [3 * x ** 0.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert fit.constant == pytest.approx(3.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, -2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 1.0], [1.0, 2.0])


class TestTradeoffTable:
    def test_rows_per_alpha(self):
        rows = tradeoff_table(1024, 100, [1, 2, 3])
        assert len(rows) == 3
        assert [row[0] for row in rows] == [1, 2, 3]
        assert all(row[2] >= row[1] for row in rows)
