"""Deadline propagation: the ambient token, check sites, engine integration."""

from __future__ import annotations

import pytest

from repro.exceptions import DeadlineExceededError, ReproError, TransientTaskError
from repro.service.deadline import Deadline, check_deadline, clock, deadline_scope
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

    def test_expired_deadline_goes_negative(self):
        assert EXPIRED.expired
        assert EXPIRED.remaining() < 0.0


class TestAmbientToken:
    def test_no_deadline_by_default(self):
        check_deadline()  # must be a no-op, not a raise

    def test_scope_sets_and_resets(self):
        with deadline_scope(EXPIRED):
            with pytest.raises(DeadlineExceededError):
                check_deadline()
            with deadline_scope(None):  # an inner scope clears the outer one
                check_deadline()
        check_deadline()

    def test_scope_resets_after_exception(self):
        with pytest.raises(RuntimeError):
            with deadline_scope(EXPIRED):
                raise RuntimeError("boom")
        check_deadline()

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
        # No pass was charged for the refused grant.
        assert stream.passes_consumed == 0

    def test_streams_flow_freely_without_a_deadline(self):
        stream = SetStream(_system())
        stream.batched_pass()
        stream.batched_pass()
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
