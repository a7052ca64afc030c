"""Unit tests for the space meter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SpaceBudgetExceededError
from repro.streaming.space import SpaceMeter
from repro.telemetry import TelemetrySession
from repro.telemetry.metrics import gauge_set


class TestBasicAccounting:
    def test_charge_and_current(self):
        meter = SpaceMeter()
        meter.charge("a", 10)
        meter.charge("b", 5)
        assert meter.current_words == 15
        assert meter.usage("a") == 10

    def test_peak_tracks_maximum(self):
        meter = SpaceMeter()
        meter.charge("a", 10)
        meter.release("a", 8)
        meter.charge("a", 3)
        assert meter.current_words == 5
        assert meter.peak_words == 10

    def test_set_usage_absolute(self):
        meter = SpaceMeter()
        meter.set_usage("x", 7)
        meter.set_usage("x", 3)
        assert meter.usage("x") == 3
        assert meter.peak_words == 7

    def test_release_all(self):
        meter = SpaceMeter()
        meter.charge("a", 4)
        meter.release("a")
        assert meter.usage("a") == 0

    def test_release_too_much_rejected(self):
        meter = SpaceMeter()
        meter.charge("a", 2)
        with pytest.raises(ValueError):
            meter.release("a", 5)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SpaceMeter().charge("a", -1)

    def test_reset_category(self):
        meter = SpaceMeter()
        meter.charge("a", 9)
        meter.reset_category("a")
        assert meter.usage("a") == 0
        assert meter.peak_words == 9


class TestBudget:
    def test_budget_enforced(self):
        meter = SpaceMeter(budget=10)
        meter.charge("a", 10)
        with pytest.raises(SpaceBudgetExceededError):
            meter.charge("a", 1)

    def test_budget_error_carries_values(self):
        meter = SpaceMeter(budget=5)
        try:
            meter.charge("a", 6)
        except SpaceBudgetExceededError as exc:
            assert exc.used == 6
            assert exc.budget == 5
        else:  # pragma: no cover
            pytest.fail("expected SpaceBudgetExceededError")

    def test_charge_exactly_to_budget_allowed(self):
        meter = SpaceMeter(budget=10)
        meter.charge("incidences", 10)
        assert meter.current_words == 10
        assert meter.peak_words == 10

    def test_one_word_over_budget_raises(self):
        meter = SpaceMeter(budget=10)
        meter.charge("incidences", 10)
        with pytest.raises(SpaceBudgetExceededError):
            meter.charge("solution", 1)

    def test_budget_edge_across_categories(self):
        meter = SpaceMeter(budget=10)
        meter.charge("a", 6)
        meter.charge("b", 4)  # exactly at budget, split across categories
        meter.release("a", 1)
        meter.charge("b", 1)  # back to exactly the budget
        assert meter.current_words == 10
        with pytest.raises(SpaceBudgetExceededError):
            meter.set_usage("a", 6)

    def test_zero_budget_allows_only_zero_usage(self):
        meter = SpaceMeter(budget=0)
        meter.set_usage("counters", 0)
        with pytest.raises(SpaceBudgetExceededError):
            meter.charge("counters", 1)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            SpaceMeter(budget=-1)


class TestReport:
    def test_report_contents(self):
        meter = SpaceMeter()
        meter.charge("incidences", 100)
        meter.charge("solution", 3)
        meter.release("incidences", 50)
        report = meter.report()
        assert report.peak_words == 103
        assert report.final_words == 53
        assert report.peak_by_category["incidences"] == 100
        assert report.dominant_category() == "incidences"

    def test_empty_report(self):
        report = SpaceMeter().report()
        assert report.peak_words == 0
        assert report.dominant_category() is None


class RecomputingMeter:
    """Reference meter: re-sums every category on each update."""

    def __init__(self, budget=None):
        self._budget = budget
        self._current = {}
        self._peak_by_category = {}
        self._peak_total = 0

    def charge(self, category, words):
        if words < 0:
            raise ValueError(f"charge must be non-negative, got {words}")
        self.set_usage(category, self._current.get(category, 0) + words)

    def release(self, category, words=None):
        held = self._current.get(category, 0)
        if words is None:
            words = held
        if words < 0:
            raise ValueError(f"release must be non-negative, got {words}")
        if words > held:
            raise ValueError(
                f"cannot release {words} words from category {category!r} holding {held}"
            )
        self.set_usage(category, held - words)

    def set_usage(self, category, words):
        if words < 0:
            raise ValueError(f"usage must be non-negative, got {words}")
        self._current[category] = words
        self._peak_by_category[category] = max(self._peak_by_category.get(category, 0), words)
        total = sum(self._current.values())
        self._peak_total = max(self._peak_total, total)
        gauge_set(f"space.{category}", words)
        gauge_set("space.total_words", total)
        if self._budget is not None and total > self._budget:
            raise SpaceBudgetExceededError(total, self._budget)

    def reset_category(self, category):
        self.set_usage(category, 0)

    @property
    def current_words(self):
        return sum(self._current.values())

    @property
    def peak_words(self):
        return self._peak_total

    def usage(self, category):
        return self._current.get(category, 0)

    def report(self):
        return (self._peak_total, self.current_words, list(self._peak_by_category.items()))


_CATEGORIES = st.sampled_from(["stored_incidences", "solution", "counters", "sample"])
_WORDS = st.integers(min_value=-2, max_value=40)
_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("charge"), _CATEGORIES, _WORDS),
        st.tuples(st.just("release"), _CATEGORIES, st.none() | _WORDS),
        st.tuples(st.just("set_usage"), _CATEGORIES, _WORDS),
        st.tuples(st.just("reset_category"), _CATEGORIES),
    ),
    max_size=40,
)


def drive(meter, operations, capture):
    """Apply ``operations``; return per-step outcomes, the report, the gauges."""
    steps = []

    def run():
        for name, *args in operations:
            try:
                getattr(meter, name)(*args)
                outcome = None
            except (ValueError, SpaceBudgetExceededError) as exc:
                outcome = (type(exc).__name__, str(exc))
            steps.append((outcome, meter.current_words, meter.peak_words, meter.usage(args[0])))

    if not capture:
        run()
        return steps, None
    with TelemetrySession(label="space-meter") as session:
        run()
    return steps, list(session.registry.snapshot()["gauges"].items())


class TestRunningTotal:
    @settings(max_examples=200, deadline=None)
    @given(
        operations=_OPERATIONS,
        budget=st.none() | st.integers(min_value=0, max_value=80),
        capture=st.booleans(),
    )
    def test_matches_recomputing_reference(self, operations, budget, capture):
        meter, reference = SpaceMeter(budget=budget), RecomputingMeter(budget=budget)
        got_steps, got_gauges = drive(meter, operations, capture)
        want_steps, want_gauges = drive(reference, operations, capture)
        assert got_steps == want_steps
        assert got_gauges == want_gauges
        report = meter.report()
        assert (
            report.peak_words,
            report.final_words,
            list(report.peak_by_category.items()),
        ) == reference.report()
