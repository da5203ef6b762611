"""Tests of the per-oracle deadline in the fuzzing loop.

The regression: a crash-guarded oracle that *hangs* (rather than raises)
used to stall ``run_fuzz`` past ``--budget-seconds``, because the budget
was only consulted between iterations.  Each oracle call is now bounded by
``call_with_deadline`` and a hang becomes a structured ``timed_out``
failure the run steps over.
"""

import time

import pytest

from repro.core.deadline import call_with_deadline
from repro.errors import DeadlineExceeded
from repro.obs.metrics import counter
from repro.verify.oracles import Oracle
from repro.verify.runner import run_fuzz, run_oracle_guarded
from repro.verify.scenarios import ScenarioProfile, scenario_stream


def _hanging_oracle(hang_seconds=30.0):
    def check(spec, library):
        time.sleep(hang_seconds)

    return Oracle(name="hanging-test-oracle",
                  description="blocks far past any test deadline",
                  check=check)


def _spec():
    (_, spec), = list(scenario_stream(3, 1))
    return spec


class TestCallWithDeadline:
    def test_fast_calls_pass_through(self):
        assert call_with_deadline(lambda: 7, 5.0, what="fast") == 7
        assert call_with_deadline(lambda: 7, None, what="unbounded") == 7

    def test_hanging_call_raises_at_the_deadline(self):
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            call_with_deadline(lambda: time.sleep(30), 0.1, what="hang")
        assert time.monotonic() - start < 5.0

    def test_exhausted_deadline_fails_without_calling(self):
        calls = []
        with pytest.raises(DeadlineExceeded):
            call_with_deadline(lambda: calls.append(1), 0.0, what="late")
        assert calls == []

    def test_body_exceptions_propagate_unwrapped(self):
        with pytest.raises(KeyError):
            call_with_deadline(lambda: {}["missing"], 5.0, what="raiser")


class TestGuardedOracleDeadline:
    def test_hanging_oracle_becomes_structured_timeout(self, library):
        before = counter("oracle.timeout").value
        start = time.monotonic()
        outcome = run_oracle_guarded(_hanging_oracle(), _spec(), library,
                                     deadline_seconds=0.1)
        assert time.monotonic() - start < 5.0
        assert not outcome.ok
        assert outcome.timed_out
        assert "timeout" in outcome.details
        assert counter("oracle.timeout").value == before + 1

    def test_fast_oracle_is_untouched_by_a_deadline(self, library):
        from repro.verify.oracles import ORACLES

        outcome = run_oracle_guarded(ORACLES["sequential-slack"], _spec(),
                                     library, deadline_seconds=30.0)
        assert outcome.ok and not outcome.timed_out


class TestFuzzLoopDeadline:
    def test_hang_cannot_stall_past_the_budget(self):
        # One hanging oracle, a 0.4s budget: without the per-oracle
        # deadline this test would block for hang_seconds.
        from repro.verify import runner as runner_mod

        hanging = _hanging_oracle()
        original = runner_mod.select_oracles
        try:
            runner_mod.select_oracles = lambda names: [hanging]
            start = time.monotonic()
            report = run_fuzz(seed=3, iterations=3, budget_seconds=0.4,
                              shrink=True,
                              profile=ScenarioProfile(max_segments=2))
            elapsed = time.monotonic() - start
        finally:
            runner_mod.select_oracles = original

        assert elapsed < 10.0  # nowhere near the 30s hang
        assert report.failures  # the cut-off was recorded ...
        assert report.timeouts == report.failures  # ... as timeouts
        failure = report.failures[0]
        assert failure.timed_out
        assert failure.shrunk is None  # timeouts are never shrunk
        assert failure.oracle == "hanging-test-oracle"

    def test_explicit_oracle_deadline_without_budget(self):
        from repro.verify import runner as runner_mod

        hanging = _hanging_oracle()
        original = runner_mod.select_oracles
        try:
            runner_mod.select_oracles = lambda names: [hanging]
            report = run_fuzz(seed=3, iterations=2,
                              profile=ScenarioProfile(max_segments=2),
                              oracle_deadline_seconds=0.1)
        finally:
            runner_mod.select_oracles = original
        assert report.iterations == 2  # the run stepped over both hangs
        assert len(report.timeouts) == 2

    def test_cli_exposes_the_oracle_deadline_flag(self):
        from repro.verify.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--iterations", "1", "--oracle-deadline", "2.5"])
        assert args.oracle_deadline == 2.5
