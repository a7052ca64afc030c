"""Deadline propagation: the ambient token, check sites, engine integration."""

from __future__ import annotations

import pytest

from repro.exceptions import DeadlineExceededError, ReproError, TransientTaskError
from repro.service.deadline import (
    Deadline,
    check_deadline,
    clock,
    deadline_scope,
    remaining_budget,
)
from repro.streaming.stream import SetStream
from repro.workloads.random_instances import random_set_system

EXPIRED = Deadline(expires_at=clock() - 1.0)


def _system():
    return random_set_system(24, 12, density=0.2, seed=3)


class TestDeadlineValue:
    def test_after_positions_in_the_future(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired
        assert 0.0 < deadline.remaining() <= 60.0

    def test_expired_deadline_goes_negative_but_budget_clamps(self):
        assert EXPIRED.expired
        assert EXPIRED.remaining() < 0.0  # raw remaining is signed...
        with deadline_scope(EXPIRED):
            assert remaining_budget() == 0.0  # ...the shippable budget is not


class TestAmbientToken:
    def test_no_deadline_by_default(self):
        assert remaining_budget() is None
        check_deadline()  # must be a no-op, not a raise
        assert remaining_budget(7.5) == 7.5

    def test_scope_sets_and_resets(self):
        deadline = Deadline.after(60.0)
        with deadline_scope(deadline):
            assert remaining_budget(999.0) < 61.0
        assert remaining_budget() is None

    def test_scope_resets_after_exception(self):
        with pytest.raises(RuntimeError):
            with deadline_scope(Deadline.after(60.0)):
                raise RuntimeError("boom")
        assert remaining_budget() is None

    def test_check_raises_with_positive_overrun(self):
        with deadline_scope(EXPIRED):
            with pytest.raises(DeadlineExceededError) as excinfo:
                check_deadline()
        assert excinfo.value.overrun > 0.0

    def test_deadline_error_is_not_transient(self):
        # Retrying an expired request can never help; the error must not be
        # caught by the transient-retry machinery.
        assert issubclass(DeadlineExceededError, ReproError)
        assert not issubclass(DeadlineExceededError, TransientTaskError)


class TestStreamIntegration:
    def test_pass_grants_are_cancellation_points(self):
        stream = SetStream(_system())
        with deadline_scope(EXPIRED):
            with pytest.raises(DeadlineExceededError):
                stream.batched_pass()
            with pytest.raises(DeadlineExceededError):
                next(stream.iterate_pass())
        # No pass was charged for either refused grant.
        assert stream.passes_consumed == 0

    def test_streams_flow_freely_without_a_deadline(self):
        stream = SetStream(_system())
        stream.batched_pass()
        list(stream.iterate_pass())
        assert stream.passes_consumed == 2

    def test_engine_refuses_expired_runs(self):
        from repro.core.value_estimation import SetCoverValueEstimator
        from repro.streaming.engine import run_streaming_algorithm

        system = _system()
        with deadline_scope(EXPIRED):
            with pytest.raises(DeadlineExceededError):
                run_streaming_algorithm(
                    SetCoverValueEstimator(alpha=2, seed=0),
                    system,
                    verify_solution=False,
                )

    def test_engine_completes_under_roomy_deadline(self):
        from repro.core.value_estimation import SetCoverValueEstimator
        from repro.streaming.engine import run_streaming_algorithm

        system = _system()
        with deadline_scope(Deadline.after(120.0)):
            result = run_streaming_algorithm(
                SetCoverValueEstimator(alpha=2, seed=0),
                system,
                verify_solution=False,
            )
        clean = run_streaming_algorithm(
            SetCoverValueEstimator(alpha=2, seed=0), system, verify_solution=False
        )
        # A deadline that never fires must not perturb the computation.
        assert result.estimated_value == clean.estimated_value
        assert result.passes == clean.passes
