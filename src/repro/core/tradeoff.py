"""The paper's space-approximation tradeoff bounds as explicit formulas.

These functions encode the statements of Theorems 1–5 (and the prior-work
bounds the paper compares against) so the experiment harness can plot measured
space against the predicted curves and fit scaling exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple


def dsc_parameter_t(universe_size: int, num_sets: int, alpha: int) -> int:
    """The parameter ``t = 2^{-15} · (n / log m)^{1/α}`` of distribution D_SC.

    Result is clamped to at least 1 so small-scale experiments remain
    meaningful (the constant 2^{-15} is an artifact of the asymptotic proof).
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if universe_size < 1 or num_sets < 2:
        return 1
    value = (universe_size / math.log(num_sets)) ** (1.0 / alpha) / 2 ** 15
    return max(1, int(value))


def dsc_parameter_t_unscaled(universe_size: int, num_sets: int, alpha: int) -> float:
    """``(n / log m)^{1/α}`` without the 2^{-15} constant (used at small n)."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if universe_size < 1 or num_sets < 2:
        return 1.0
    return (universe_size / math.log(num_sets)) ** (1.0 / alpha)


def theorem1_space_lower_bound(
    universe_size: int, num_sets: int, alpha: int, passes: int = 1
) -> float:
    """Theorem 1: Ω̃(m · n^{1/α} / p) space for α-approximation in p passes."""
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return num_sets * universe_size ** (1.0 / alpha) / passes


def theorem2_space_upper_bound(
    universe_size: int, num_sets: int, alpha: int, epsilon: float
) -> float:
    """Theorem 2: Õ(m·n^{1/α}/ε² + n/ε) space for an (α+ε)-approximation."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    log_factor = math.log(max(universe_size, 2)) * math.log(max(num_sets, 2))
    return (
        log_factor * num_sets * universe_size ** (1.0 / alpha) / epsilon ** 2
        + universe_size / epsilon
    )


def theorem2_pass_count(alpha: int) -> int:
    """Theorem 2: 2α + 1 passes."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return 2 * alpha + 1


def theorem4_maxcover_space_lower_bound(
    num_sets: int, epsilon: float, passes: int = 1
) -> float:
    """Theorem 4: Ω̃(m / (ε² · p)) space for (1−ε)-approximate max coverage."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    return num_sets / (epsilon ** 2 * passes)


def har_peled_space_bound(
    universe_size: int, num_sets: int, alpha: int, exponent_constant: float = 2.0
) -> float:
    """Har-Peled et al. (PODS 2016): Õ(m·n^{Θ(1/α)}) with a constant > 2
    in the exponent — the bound Algorithm 1 improves to exactly 1/α."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return num_sets * universe_size ** (min(1.0, exponent_constant / alpha))


def demaine_space_bound(universe_size: int, num_sets: int, alpha: int) -> float:
    """Demaine et al. (DISC 2014): Õ(m·n^{Θ(1/log α)}) space in O(α) passes."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    exponent = 1.0 / max(math.log(alpha, 2), 1.0) if alpha > 1 else 1.0
    return num_sets * universe_size ** min(1.0, exponent)


def nisan_lower_bound(num_sets: int, passes: int) -> float:
    """Nisan (ICALP 2002): Ω(m/p) space for better than (log n)/2 approximation."""
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    return num_sets / passes


def exact_solution_lower_bound(universe_size: int, num_sets: int, passes: int) -> float:
    """Paper's improvement for exact answers: Ω̃(m·n/p) (footnote 1)."""
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    return num_sets * universe_size / passes


@dataclass
class PowerLawFit:
    """Result of fitting measured values to ``C · x^exponent`` in log-log space."""

    exponent: float
    log_constant: float
    r_squared: float

    @property
    def constant(self) -> float:
        """The multiplicative constant C of the fitted power law."""
        return math.exp(self.log_constant)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Least-squares fit of ``y = C·x^e`` via linear regression in log space.

    Used by E1/E10 to extract the empirical scaling exponent of measured space
    against n (set cover) or 1/ε (max coverage) and compare it to the
    theoretical exponents 1/α and 2.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a power law")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("power-law fitting requires strictly positive data")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(y) for y in ys]
    n = len(log_x)
    mean_x = sum(log_x) / n
    mean_y = sum(log_y) / n
    ss_xx = sum((lx - mean_x) ** 2 for lx in log_x)
    ss_xy = sum((lx - mean_x) * (ly - mean_y) for lx, ly in zip(log_x, log_y))
    if ss_xx == 0:
        raise ValueError("cannot fit: all x values are identical")
    slope = ss_xy / ss_xx
    intercept = mean_y - slope * mean_x
    ss_res = sum(
        (ly - (slope * lx + intercept)) ** 2 for lx, ly in zip(log_x, log_y)
    )
    ss_tot = sum((ly - mean_y) ** 2 for ly in log_y)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return PowerLawFit(exponent=slope, log_constant=intercept, r_squared=r_squared)


def tradeoff_table(
    universe_size: int, num_sets: int, alphas: Sequence[int], epsilon: float = 0.5
) -> Sequence[Tuple[int, float, float, int]]:
    """Rows (alpha, lower bound, upper bound, passes) for the headline tradeoff."""
    rows = []
    for alpha in alphas:
        rows.append(
            (
                alpha,
                theorem1_space_lower_bound(universe_size, num_sets, alpha),
                theorem2_space_upper_bound(universe_size, num_sets, alpha, epsilon),
                theorem2_pass_count(alpha),
            )
        )
    return rows
