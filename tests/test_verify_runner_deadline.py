"""Tests of the per-oracle deadline in the fuzzing loop.

The regression: a crash-guarded oracle that *hangs* (rather than raises)
used to stall ``run_fuzz`` past ``--budget-seconds``, because the budget
was only consulted between iterations.  Each oracle call is now bounded by
``call_with_deadline`` and a hang becomes a structured ``timed_out``
failure the run steps over.  A hang here is work that checks the deadline
between short sleeps, as the flows check it between relaxation passes.
"""

import time

import pytest

from repro.core.deadline import call_with_deadline, check_deadline
from repro.errors import DeadlineExceeded
from repro.obs.metrics import counter
from repro.verify.oracles import Oracle
from repro.verify.runner import run_fuzz, run_oracle_guarded
from repro.verify.scenarios import ScenarioProfile, scenario_stream


def _hang(seconds=30.0):
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        check_deadline()
        time.sleep(0.01)


def _hanging_oracle(hang_seconds=30.0):
    def check(spec, library):
        _hang(hang_seconds)

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
            call_with_deadline(_hang, 0.1, what="hang")
        assert time.monotonic() - start < 5.0

    def test_exhausted_deadline_fails_without_calling(self):
        calls = []
        with pytest.raises(DeadlineExceeded):
            call_with_deadline(lambda: calls.append(1), 0.0, what="late")
        assert calls == []

    def test_body_exceptions_propagate_unwrapped(self):
        with pytest.raises(KeyError):
            call_with_deadline(lambda: {}["missing"], 5.0, what="raiser")

    def test_a_cut_off_flow_stops_working(self, library):
        # rows=2 D2's slack flow spends over a second in relaxation passes;
        # the cutoff lands at the next pass, and none runs after the call.
        from repro.flows.dse import DesignPoint
        from repro.flows.slack_based import slack_based_flow
        from repro.workloads import IDCTPointFactory

        design = IDCTPointFactory(rows=2)(DesignPoint("D2", latency=28))
        attempts = counter("relaxation.attempts")
        before = attempts.value
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded, match="D2: exceeded its 0.1s"):
            call_with_deadline(
                lambda: slack_based_flow(design, library, clock_period=1500.0),
                0.1, what="D2")
        assert time.monotonic() - start < 2.0
        after = attempts.value
        assert after > before
        time.sleep(0.3)
        assert attempts.value == after

    def test_the_cutoff_passes_through_failure_isolation(self):
        # A cutoff is not a failure of the work: `except Exception` (the
        # isolation of points, oracle sides and attempts) lets it through.
        assert not issubclass(DeadlineExceeded, Exception)

        def isolated():
            try:
                _hang()
            except Exception:  # noqa: BLE001
                pass

        with pytest.raises(DeadlineExceeded):
            call_with_deadline(isolated, 0.05, what="isolated")

    def test_the_earliest_enclosing_deadline_wins(self):
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded, match="outer: exceeded its 0.1s"):
            call_with_deadline(
                lambda: call_with_deadline(_hang, 30.0, what="inner"),
                0.1, what="outer")
        assert time.monotonic() - start < 5.0

    def test_an_expired_enclosing_deadline_stops_the_next_call(self):
        calls = []

        def two_calls():
            with pytest.raises(DeadlineExceeded):
                call_with_deadline(_hang, None, what="first")
            call_with_deadline(lambda: calls.append(1), None, what="second")

        with pytest.raises(DeadlineExceeded):
            call_with_deadline(two_calls, 0.05, what="budget")
        assert calls == []


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
        # One hanging oracle.  Under a per-oracle deadline the hang is a
        # timeout violation; without one, the budget cuts the check short
        # and it counts as unchecked.  Either way the run ends nowhere near
        # the 30s hang.
        from repro.verify import runner as runner_mod
        from repro.verify.corpus import Corpus

        hanging = _hanging_oracle()
        corpus = Corpus(None)
        original = runner_mod.select_oracles
        try:
            runner_mod.select_oracles = lambda names: [hanging]
            start = time.monotonic()
            timed = run_fuzz(seed=3, iterations=2, budget_seconds=5.0,
                             shrink=True, oracle_deadline_seconds=0.1,
                             profile=ScenarioProfile(max_segments=2))
            cut = run_fuzz(seed=3, iterations=3, budget_seconds=0.4,
                           shrink=True, corpus=corpus,
                           profile=ScenarioProfile(max_segments=2))
            elapsed = time.monotonic() - start
        finally:
            runner_mod.select_oracles = original

        assert elapsed < 10.0
        assert len(timed.failures) == 2  # each hang was recorded ...
        assert timed.timeouts == timed.failures  # ... as a timeout
        assert all(failure.shrunk is None  # timeouts are never shrunk
                   for failure in timed.failures)
        assert timed.failures[0].oracle == "hanging-test-oracle"
        assert timed.cut_short is None

        assert cut.failures == []
        assert cut.cut_short == "hanging-test-oracle"
        assert cut.budget_exhausted
        assert cut.iterations == 0 and cut.checked_per_oracle == {}
        assert cut.fingerprints == []
        assert len(corpus) == 0

    def test_budget_cuts_shrinking_off_at_its_end(self):
        # An oracle that fails after 50 ms: shrinking this scenario takes
        # 18 probes, about 0.9 s, but no probe or re-run starts after the
        # budget.
        from repro.verify import runner as runner_mod
        from repro.verify.corpus import Corpus

        def check(spec, library):
            time.sleep(0.05)
            return f"fails on {spec.num_design_ops()} ops"

        failing = Oracle(name="slow-failing-test-oracle",
                         description="fails after 50 ms", check=check)
        corpus = Corpus(None)
        original = runner_mod.select_oracles
        try:
            runner_mod.select_oracles = lambda names: [failing]
            start = time.monotonic()
            report = run_fuzz(seed=5, iterations=5, budget_seconds=0.5,
                              corpus=corpus,
                              profile=ScenarioProfile(max_segments=8))
            elapsed = time.monotonic() - start
        finally:
            runner_mod.select_oracles = original

        assert elapsed < 0.6
        assert report.budget_exhausted
        assert report.iterations == 1
        assert not report.failures[0].timed_out
        # The re-run of the shrunk spec is cut off: it keeps the details.
        failure_record, shrunk_record = corpus.records()
        assert shrunk_record["kind"] == "shrunk"
        assert shrunk_record["details"] == failure_record["details"]

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
