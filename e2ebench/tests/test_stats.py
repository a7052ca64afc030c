"""Nearest-rank percentiles and the ten-beyond rule for tail percentiles."""

import pytest

from e2ebench.stats import (
    beyond,
    median,
    nearest_rank,
    quartile_spread,
    tail_percentile,
)


def test_nearest_rank_picks_a_measured_sample():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(samples, 50) == 3.0
    assert nearest_rank(samples, 100) == 5.0
    assert nearest_rank(samples, 1) == 1.0
    # rank ceil(0.95 * 20) = 19: the second largest of 1..20
    assert nearest_rank(range(1, 21), 95) == 19


def test_median_is_the_lower_middle_for_even_counts():
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_ten_samples_beyond_p95_needs_two_hundred():
    assert beyond(200, 95) == 10
    assert beyond(199, 95) == 9
    assert beyond(20, 50) == 10
    assert beyond(0, 95) == 0


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 5) == 0.0
    spread = quartile_spread([9.0, 10.0, 10.0, 10.0, 11.0])
    assert spread == pytest.approx(0.1)


def test_tail_percentile_never_claims_an_unmeasured_tail():
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(15) == 50.0
    assert beyond(100, tail_percentile(100)) == 10
