"""Tests for retry policy, backoff, and the circuit breaker."""

from __future__ import annotations

import pytest

from repro.exceptions import CircuitOpenError, TransientTaskError
from repro.resilience.policy import (
    DEFAULT_POLICY,
    RETRY_ENV_VAR,
    CircuitBreaker,
    RetryPolicy,
    backoff_delay,
    parse_retry_spec,
    policy_from_env,
    retry_call,
)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError, match="breaker_threshold"):
            RetryPolicy(breaker_threshold=0)
        with pytest.raises(ValueError, match="max_pool_respawns"):
            RetryPolicy(max_pool_respawns=-1)
        # NaN passes no comparison, and no wait can take infinity.
        nan, inf = float("nan"), float("inf")
        for field in ("base_backoff", "max_backoff"):
            for value in (nan, inf):
                with pytest.raises(ValueError, match="backoff"):
                    RetryPolicy(**{field: value})
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=nan)
        for value in (nan, inf):
            with pytest.raises(ValueError, match="timeout"):
                RetryPolicy(timeout=value)

    def test_spec_round_trip(self):
        policy = RetryPolicy(
            max_attempts=5,
            base_backoff=0.1,
            multiplier=3.0,
            max_backoff=2.0,
            jitter=0.25,
            timeout=1.5,
            breaker_threshold=7,
            max_pool_respawns=2,
        )
        assert parse_retry_spec(policy.spec()) == policy

    def test_spec_without_timeout(self):
        assert "timeout" not in RetryPolicy(timeout=None).spec()


class TestParseRetrySpec:
    def test_unset_fields_keep_defaults(self):
        policy = parse_retry_spec("attempts=7")
        assert policy.max_attempts == 7
        assert policy.base_backoff == DEFAULT_POLICY.base_backoff

    def test_timeout_disabling_spellings(self):
        for value in ("none", "0", "off"):
            assert parse_retry_spec(f"timeout={value}").timeout is None

    def test_bad_clause_rejected(self):
        with pytest.raises(ValueError, match="bad retry clause"):
            parse_retry_spec("bogus=1")
        with pytest.raises(ValueError, match="bad retry clause"):
            parse_retry_spec("attempts")

    def test_base_policy_overlay(self):
        base = RetryPolicy(max_attempts=9, jitter=0.0)
        policy = parse_retry_spec("backoff=0.5", base=base)
        assert policy.max_attempts == 9
        assert policy.base_backoff == 0.5

    def test_policy_from_env(self, monkeypatch):
        monkeypatch.delenv(RETRY_ENV_VAR, raising=False)
        assert policy_from_env() == DEFAULT_POLICY
        monkeypatch.setenv(RETRY_ENV_VAR, "attempts=4,timeout=2")
        policy = policy_from_env()
        assert policy.max_attempts == 4
        assert policy.timeout == 2.0


class TestBackoffDelay:
    def test_exponential_without_jitter(self):
        policy = RetryPolicy(base_backoff=0.1, multiplier=2.0, jitter=0.0, max_backoff=10.0)
        assert backoff_delay(policy, 1) == pytest.approx(0.1)
        assert backoff_delay(policy, 2) == pytest.approx(0.2)
        assert backoff_delay(policy, 3) == pytest.approx(0.4)

    def test_capped_at_max_backoff(self):
        policy = RetryPolicy(base_backoff=0.1, multiplier=10.0, jitter=0.0, max_backoff=0.3)
        assert backoff_delay(policy, 5) == pytest.approx(0.3)

    def test_attempt_zero_is_free(self):
        assert backoff_delay(DEFAULT_POLICY, 0) == 0.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_backoff=0.1, multiplier=2.0, jitter=0.5)
        delays = [backoff_delay(policy, 1, seed=s, path=("T",)) for s in range(32)]
        assert delays == [backoff_delay(policy, 1, seed=s, path=("T",)) for s in range(32)]
        assert all(0.05 <= d <= 0.1 for d in delays)
        # Different seeds actually decorrelate.
        assert len(set(delays)) > 1


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        breaker.check()  # still closed
        breaker.record_failure()
        assert breaker.open
        with pytest.raises(CircuitOpenError):
            breaker.check()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.open
        assert breaker.total_failures == 2

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)


class TestRetryCall:
    def test_passes_attempt_number(self):
        seen = []

        def flaky(attempt):
            seen.append(attempt)
            if attempt < 2:
                raise TransientTaskError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_backoff=0.0, jitter=0.0)
        assert retry_call(flaky, policy=policy, sleep=lambda s: None) == "ok"
        assert seen == [0, 1, 2]

    def test_exhausted_attempts_propagate_the_transient(self):
        def always_fails(attempt):
            raise TransientTaskError("still broken")

        policy = RetryPolicy(max_attempts=2, base_backoff=0.0, jitter=0.0)
        with pytest.raises(TransientTaskError):
            retry_call(always_fails, policy=policy, sleep=lambda s: None)

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def buggy(attempt):
            calls.append(attempt)
            raise TypeError("a real bug")

        with pytest.raises(TypeError):
            retry_call(buggy, policy=RetryPolicy(max_attempts=5), sleep=lambda s: None)
        assert calls == [0]

    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy(max_attempts=4, base_backoff=0.1, multiplier=2.0, jitter=0.5)

        def run_once():
            slept = []

            def flaky(attempt):
                if attempt < 3:
                    raise TransientTaskError("transient")
                return attempt

            retry_call(flaky, policy=policy, seed=7, path=("T",), sleep=slept.append)
            return slept

        first, second = run_once(), run_once()
        assert first == second
        assert len(first) == 3
