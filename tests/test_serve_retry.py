"""Unit tests of the serve layer's retry/timeout/backoff policy.

Everything here runs on the fake clock — no real sleeping — except the
deadline tests, which exercise the real deadline checkpoints with
sub-second budgets.
"""

import time

import pytest

from repro.core.deadline import check_deadline
from repro.errors import ReproError
from repro.serve.fakes import FakeClock
from repro.serve.retry import (
    BACKOFF_SECONDS,
    JITTER_FRACTION,
    MAX_BACKOFF_SECONDS,
    AttemptRecord,
    RetryPolicy,
    run_with_retry,
)


class TestPolicyValidation:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)

    def test_to_dict_is_json_safe(self):
        import json

        policy = RetryPolicy(deadline_seconds=5.0)
        json.dumps(policy.to_dict())
        assert policy.to_dict() == {"max_attempts": 3,
                                    "deadline_seconds": 5.0}


class TestBackoffSequence:
    def test_deterministic_under_seeded_jitter(self):
        policy = RetryPolicy(max_attempts=5)
        assert policy.backoff_sequence() == policy.backoff_sequence()
        assert RetryPolicy(max_attempts=3).backoff_sequence() \
            == policy.backoff_sequence()[:2]

    def test_exponential_growth_and_cap(self):
        # 0.1 s doubling: 0.1, 0.2, ..., 25.6 s, then capped at 30 s.
        bases = [min(BACKOFF_SECONDS * 2 ** i, MAX_BACKOFF_SECONDS)
                 for i in range(11)]
        assert bases[-3:] == [25.6, MAX_BACKOFF_SECONDS, MAX_BACKOFF_SECONDS]
        delays = RetryPolicy(max_attempts=12).backoff_sequence()
        assert len(delays) == 11
        for base, delay in zip(bases, delays):
            assert base <= delay <= base * (1.0 + JITTER_FRACTION)

    def test_jitter_stretches_within_fraction(self):
        delays = RetryPolicy(max_attempts=6).backoff_sequence()
        stretch = [delay / (BACKOFF_SECONDS * 2 ** i)
                   for i, delay in enumerate(delays)]
        assert all(1.0 <= factor <= 1.0 + JITTER_FRACTION
                   for factor in stretch)
        assert len(set(stretch)) == len(stretch)  # drawn, not constant

    def test_single_attempt_has_no_backoff(self):
        assert RetryPolicy(max_attempts=1).backoff_sequence() == []


class TestRunWithRetry:
    def test_first_try_success_records_one_ok_attempt(self):
        clock = FakeClock()
        outcome = run_with_retry(lambda: 42, RetryPolicy(),
                                 clock=clock, sleep=clock.sleep)
        assert outcome.ok and outcome.value == 42
        assert [a.outcome for a in outcome.attempts] == ["ok"]
        assert outcome.failure is None
        assert clock.sleeps == []

    def test_errors_retry_with_the_policy_backoff_schedule(self):
        clock = FakeClock()
        policy = RetryPolicy(max_attempts=3)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ReproError(f"transient {len(calls)}")
            return "done"

        outcome = run_with_retry(flaky, policy, clock=clock,
                                 sleep=clock.sleep)
        assert outcome.ok and outcome.value == "done"
        assert [a.outcome for a in outcome.attempts] == ["error", "error",
                                                         "ok"]
        # The exact sleeps are the policy's first two backoff entries.
        assert clock.sleeps == policy.backoff_sequence()[:2]
        assert [a.backoff_seconds for a in outcome.attempts[:-1]] \
            == clock.sleeps

    def test_max_retries_produces_structured_error_failure(self):
        clock = FakeClock()

        def always_fails():
            raise ValueError("permanently broken")

        outcome = run_with_retry(always_fails,
                                 RetryPolicy(max_attempts=3), what="job j1",
                                 clock=clock, sleep=clock.sleep)
        assert not outcome.ok and not outcome.timed_out
        assert outcome.failure["kind"] == "error"
        assert outcome.failure["what"] == "job j1"
        assert "permanently broken" in outcome.failure["error"]
        assert len(outcome.failure["attempts"]) == 3
        assert all(a["outcome"] == "error"
                   for a in outcome.failure["attempts"])

    def test_deadline_exceeded_is_terminal_not_retried(self):
        calls = []

        def hangs():
            calls.append(1)
            end = time.monotonic() + 30
            while time.monotonic() < end:
                check_deadline()
                time.sleep(0.01)

        outcome = run_with_retry(
            hangs, RetryPolicy(max_attempts=5, deadline_seconds=0.05),
            what="hung job")
        assert not outcome.ok and outcome.timed_out
        assert outcome.failure["kind"] == "timeout"
        assert len(calls) == 1  # no retry after a timeout
        assert [a.outcome for a in outcome.attempts] == ["timeout"]

    def test_deadline_consumed_by_earlier_attempts_fails_fast(self):
        # The fake clock's tick consumes the whole deadline before the
        # second attempt starts; call_with_deadline must fail it without
        # even invoking the body again.
        clock = FakeClock(tick=0.0)
        calls = []

        def fails_once():
            calls.append(1)
            if len(calls) == 1:
                clock.advance(10.0)  # the attempt "took" 10 virtual seconds
                raise ReproError("slow failure")
            return "never reached in time"

        outcome = run_with_retry(
            fails_once,
            RetryPolicy(max_attempts=3, deadline_seconds=5.0),
            clock=clock, sleep=clock.sleep)
        assert not outcome.ok and outcome.timed_out
        assert len(calls) == 1
        assert [a.outcome for a in outcome.attempts] == ["error", "timeout"]

    def test_no_deadline_runs_inline(self):
        # Inline execution: the body sees the caller's thread, with or
        # without a deadline (a deadline is a scope, not a thread).
        import threading

        caller = threading.current_thread()
        seen = []
        for deadline in (None, 5.0):
            outcome = run_with_retry(
                lambda: seen.append(threading.current_thread()),
                RetryPolicy(deadline_seconds=deadline))
            assert outcome.ok
        assert seen == [caller, caller]

    def test_attempt_records_are_json_safe(self):
        import json

        record = AttemptRecord(index=0, outcome="error", error="boom",
                               elapsed_seconds=0.5, backoff_seconds=0.1)
        json.dumps(record.as_dict())
