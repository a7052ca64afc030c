"""Tradeoff-curve math on hand-computed fixtures."""

import pytest

from repro.analysis.records import AnalysisRecord
from repro.analysis.tradeoff import (
    Envelope,
    aggregate,
    space_approximation_points,
    theoretical_curve,
    typical_instance_shape,
)


def make_record(
    algorithm="greedy",
    workload="dsc",
    solution_size=6,
    opt_bound=3,
    passes=2,
    peak=100,
    feasible=True,
    n=96,
    m=24,
    key="k",
):
    return AnalysisRecord(
        key=key,
        runner="WL",
        experiment_id="WL",
        title="t",
        fingerprint=key * 4,
        workload=workload,
        algorithm=algorithm,
        order="adversarial",
        universe_size=n,
        num_sets=m,
        solution_size=solution_size,
        opt_bound=opt_bound,
        feasible=feasible,
        passes=passes,
        peak_space_words=peak,
    )


class TestEnvelope:
    def test_hand_computed_min_median_max(self):
        env = Envelope.from_values([4.0, 1.0, 2.0])
        assert (env.lo, env.mid, env.hi) == (1.0, 2.0, 4.0)

    def test_even_count_median_is_midpoint(self):
        env = Envelope.from_values([1.0, 2.0, 3.0, 10.0])
        assert env.mid == pytest.approx(2.5)

    def test_single_value(self):
        env = Envelope.from_values([7])
        assert tuple(env) == (7.0, 7.0, 7.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Envelope.from_values([])

    def test_format_collapses_constant(self):
        assert Envelope.from_values([2.0]).format() == "2"
        assert Envelope.from_values([1.0, 2.0, 3.0]).format() == "1 / 2 / 3"


class TestAggregate:
    def test_hand_computed_group_envelopes(self):
        records = [
            make_record(solution_size=3, opt_bound=3, peak=100, passes=1),
            make_record(solution_size=6, opt_bound=3, peak=300, passes=3),
            make_record(solution_size=9, opt_bound=3, peak=200, passes=2),
        ]
        (point,) = aggregate(records)
        assert point.count == 3
        assert tuple(point.ratio) == (1.0, 2.0, 3.0)
        assert tuple(point.space) == (100.0, 200.0, 300.0)
        assert tuple(point.passes) == (1.0, 2.0, 3.0)
        assert point.short_label == "greedy"

    def test_groups_sorted_and_separated(self):
        records = [
            make_record(algorithm="b", peak=10),
            make_record(algorithm="a", peak=20),
            make_record(algorithm="b", peak=30),
        ]
        points = aggregate(records)
        assert [p.short_label for p in points] == ["a", "b"]
        assert points[1].count == 2

    def test_multi_axis_grouping(self):
        records = [
            make_record(workload="dsc"),
            make_record(workload="dmc"),
        ]
        points = aggregate(records, by=("algorithm", "workload"))
        assert len(points) == 2
        assert points[0].label == "algorithm=greedy, workload=dmc"

    def test_records_missing_group_axis_are_excluded(self):
        records = [make_record(), make_record(algorithm=None)]
        (point,) = aggregate(records)
        assert point.count == 1

    def test_infeasible_records_do_not_contribute_ratios(self):
        records = [
            make_record(solution_size=1, opt_bound=3, feasible=False),
            make_record(solution_size=6, opt_bound=3),
        ]
        (point,) = aggregate(records)
        assert tuple(point.ratio) == (2.0, 2.0, 2.0)
        assert point.count == 2

    def test_group_with_no_metric_has_none_envelope(self):
        (point,) = aggregate([make_record(passes=None, peak=None, solution_size=None)])
        assert point.passes is None
        assert point.space is None
        assert point.ratio is None


class TestSpaceApproximationPoints:
    def test_requires_both_axes(self):
        records = [
            make_record(algorithm="with-both"),
            make_record(algorithm="no-space", peak=None),
            make_record(algorithm="no-ratio", solution_size=None),
        ]
        points = space_approximation_points(records)
        assert [p.short_label for p in points] == ["with-both"]


class TestTheory:
    def test_hand_computed_bound(self):
        assert theoretical_curve(n=64, m=10, alphas=(1, 2)) == [
            (1.0, pytest.approx(640.0)),
            (2.0, pytest.approx(80.0)),
        ]
        assert theoretical_curve(n=4096, m=1, alphas=(3,)) == [(3.0, pytest.approx(16.0))]

    def test_curve_is_decreasing_in_alpha(self):
        curve = theoretical_curve(n=1024, m=32)
        spaces = [space for _, space in curve]
        assert spaces == sorted(spaces, reverse=True)
        assert curve[0][0] == 1.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            theoretical_curve(n=5, m=5, alphas=(0,))


class TestTypicalShape:
    def test_median_shape(self):
        records = [
            make_record(n=64, m=10),
            make_record(n=96, m=24),
            make_record(n=128, m=30),
        ]
        assert typical_instance_shape(records) == (96, 24)

    def test_no_shape_reported(self):
        assert typical_instance_shape([make_record(n=None, m=None)]) is None
