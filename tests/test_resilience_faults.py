"""Tests for deterministic fault injection (repro.resilience.faults)."""

from __future__ import annotations

import pytest

from repro.exceptions import InjectedFaultError
from repro.resilience.faults import (
    FAULTS_ENV_VAR,
    FaultPlan,
    FaultRule,
    active_plan,
    attempt_scope,
    current_attempt,
    fault_plan_active,
    faults_enabled,
    inject,
    install_plan,
    parse_fault_spec,
)
from repro.telemetry.session import TelemetrySession


class TestFaultRule:
    def test_defaults(self):
        rule = FaultRule(site="store.put", kind="torn")
        assert rule.rate == 1.0
        assert rule.until == 1

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="nope", kind="raise")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(site="store.put", kind="explode")

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FaultRule(site="store.put", kind="torn", rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultRule(site="store.put", kind="torn", rate=-0.1)

    def test_until_must_be_positive(self):
        with pytest.raises(ValueError, match="until"):
            FaultRule(site="store.put", kind="torn", until=0)


class TestSpecParsing:
    def test_round_trip(self):
        spec = "seed=7,hang=2,executor.submit:crash:0.25:2,store.put:torn:0.5:1"
        plan = parse_fault_spec(spec)
        assert plan.seed == 7
        assert plan.hang_s == 2.0
        assert parse_fault_spec(plan.spec()) == plan

    def test_rate_and_until_default(self):
        plan = parse_fault_spec("engine.pass:raise")
        assert plan.rules == (FaultRule("engine.pass", "raise", 1.0, 1),)

    def test_bad_clause_rejected(self):
        with pytest.raises(ValueError, match="bad fault clause"):
            parse_fault_spec("store.put")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan option"):
            parse_fault_spec("speed=3")

    def test_hang_must_be_finite_and_non_negative(self):
        for value in ("nan", "inf", "-1"):
            with pytest.raises(ValueError, match="hang"):
                parse_fault_spec(f"hang={value}")

    def test_empty_clauses_skipped(self):
        plan = parse_fault_spec("seed=1,,engine.pass:raise,")
        assert len(plan.rules) == 1


class TestDecide:
    def test_pure_function_of_inputs(self):
        plan = parse_fault_spec("seed=3,executor.submit:crash:0.5")
        first = [plan.decide("executor.submit", f"T{i}", 0) for i in range(64)]
        second = [plan.decide("executor.submit", f"T{i}", 0) for i in range(64)]
        assert first == second
        # A half rate fires on some keys and not others.
        assert any(kind == "crash" for kind in first)
        assert any(kind is None for kind in first)

    def test_rate_one_always_fires_rate_zero_never(self):
        plan = FaultPlan(
            seed=1,
            rules=(
                FaultRule("store.put", "torn", rate=1.0),
                FaultRule("engine.pass", "raise", rate=0.0),
            ),
        )
        assert all(plan.decide("store.put", f"k{i}", 0) == "torn" for i in range(16))
        assert all(plan.decide("engine.pass", f"k{i}", 0) is None for i in range(16))

    def test_until_bounds_attempts(self):
        plan = parse_fault_spec("executor.submit:raise:1:2")
        assert plan.decide("executor.submit", "T", 0) == "raise"
        assert plan.decide("executor.submit", "T", 1) == "raise"
        assert plan.decide("executor.submit", "T", 2) is None

    def test_unmatched_site_is_none(self):
        plan = parse_fault_spec("store.put:torn")
        assert plan.decide("transport.attach", "seg", 0) is None

    def test_different_seeds_differ(self):
        decisions = {
            seed: tuple(
                parse_fault_spec(f"seed={seed},executor.submit:crash:0.5").decide(
                    "executor.submit", f"T{i}", 0
                )
                for i in range(64)
            )
            for seed in (1, 2)
        }
        assert decisions[1] != decisions[2]


class TestActivation:
    def test_env_activates_and_caches(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert not faults_enabled()
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=5,store.put:torn:0.5")
        plan = active_plan()
        assert plan is not None and plan.seed == 5
        # Same spec string: the cached plan object is reused.
        assert active_plan() is plan
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=6,store.put:torn:0.5")
        assert active_plan().seed == 6
        monkeypatch.delenv(FAULTS_ENV_VAR)
        assert not faults_enabled()

    def test_install_plan_none_beats_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=5,engine.pass:raise")
        assert faults_enabled()
        with fault_plan_active(None):
            assert not faults_enabled()
            assert inject("engine.pass", key="p1") is None
        assert faults_enabled()

    def test_install_plan_restore(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        restore = install_plan(parse_fault_spec("seed=1,engine.pass:raise"))
        try:
            assert faults_enabled()
        finally:
            restore()
        assert not faults_enabled()


class TestInject:
    def test_noop_without_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert inject("executor.submit", key="T") is None

    def test_raise_kind_raises_transient(self):
        with fault_plan_active(parse_fault_spec("seed=1,engine.pass:raise")):
            with pytest.raises(InjectedFaultError) as info:
                inject("engine.pass", key="pass:1")
        assert info.value.site == "engine.pass"
        assert info.value.kind == "raise"

    def test_crash_degrades_to_raise_outside_worker(self):
        # os._exit would kill the test process; outside a pool worker the
        # crash kind must degrade to a recoverable transient raise.
        with fault_plan_active(parse_fault_spec("seed=1,executor.submit:crash")):
            with pytest.raises(InjectedFaultError) as info:
                inject("executor.submit", key="T")
        assert info.value.kind == "crash"

    def test_data_kinds_returned_to_caller(self):
        with fault_plan_active(parse_fault_spec("seed=1,store.put:torn")):
            assert inject("store.put", key="fp") == "torn"
        with fault_plan_active(parse_fault_spec("seed=1,executor.submit:corrupt")):
            assert inject("executor.submit", key="T") == "corrupt"

    def test_hang_sleeps_then_raises(self):
        plan = parse_fault_spec("seed=1,hang=0.01,executor.submit:hang")
        with fault_plan_active(plan):
            with pytest.raises(InjectedFaultError) as info:
                inject("executor.submit", key="T")
        assert info.value.kind == "hang"

    def test_injections_are_counted(self):
        with fault_plan_active(parse_fault_spec("seed=1,engine.pass:raise")):
            with TelemetrySession(label="test") as session:
                with pytest.raises(InjectedFaultError):
                    inject("engine.pass", key="p")
            counters = session.registry.snapshot()["counters"]
        assert counters["fault.injected"] == 1
        assert counters["fault.injected.engine.pass.raise"] == 1


class TestAttemptScope:
    def test_default_attempt_is_zero(self):
        assert current_attempt() == 0

    def test_scope_sets_and_restores(self):
        with attempt_scope(3):
            assert current_attempt() == 3
            with attempt_scope(5):
                assert current_attempt() == 5
            assert current_attempt() == 3
        assert current_attempt() == 0

    def test_inject_reads_ambient_attempt(self):
        # until=1: fires at attempt 0, cleared at ambient attempt 1.
        with fault_plan_active(parse_fault_spec("seed=1,engine.pass:raise:1:1")):
            with attempt_scope(1):
                assert inject("engine.pass", key="p") is None
            with pytest.raises(InjectedFaultError):
                inject("engine.pass", key="p")
