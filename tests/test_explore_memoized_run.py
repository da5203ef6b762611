"""The contract of :func:`repro.explore.store.memoized_run`, the one
key -> look up -> evaluate -> record loop.

Every test runs over both memos — a plain :class:`ResultStore` and the
serve layer's counting :class:`MemoCache` — and over both evaluation
paths: the session's flows and an injected per-point evaluator.
"""

import json

import pytest

from repro.errors import ReproError
from repro.explore import store as store_module
from repro.explore.store import (
    EVALUATED,
    MEMO,
    SHARED,
    ResultStore,
    StoreKey,
    memoized_run,
)
from repro.flows.dse import DesignPoint
from repro.flows.sweep import SweepSession
from repro.serve.cache import MemoCache
from repro.serve.fakes import canned_metrics
from repro.workloads import KernelPointFactory

FIR = KernelPointFactory("fir", params=(("taps", 4),))


def point(latency):
    return DesignPoint(name=f"fir_L{latency}", latency=latency)


class FlakyFactory:
    """FIR, except that building the design of one latency raises."""

    def __init__(self, failing_latency):
        self.failing_latency = failing_latency

    def __call__(self, design_point):
        if design_point.latency == self.failing_latency:
            raise ReproError("no design")
        return FIR(design_point)


@pytest.fixture(params=[ResultStore, MemoCache])
def memo(request, tmp_path):
    """A path-backed memo of either class that logs its lookups."""

    class Logged(request.param):
        def __init__(self, path):
            super().__init__(path)
            self.looked_up = []

        def lookup(self, key):
            self.looked_up.append(key)
            return super().lookup(key)

    return Logged(str(tmp_path / "memo.jsonl"))


@pytest.fixture(params=["session", "evaluator"])
def run(request, library, monkeypatch):
    """``run(points, memo, factory=FIR, fail_at=None)`` through one path.

    Returns ``(outcomes, failures, evaluated)``: ``evaluated`` logs every
    latency the path evaluated so far; ``fail_at`` makes that latency's
    evaluation raise (a flow failure, or an evaluator failure).
    """
    evaluated = []
    failing = set()

    def check(p, what):
        evaluated.append(p.latency)
        if p.latency in failing:
            raise ReproError(f"{what} broke")

    def evaluator(factory, library, p, margin_fraction, scheduling):
        check(p, "evaluator")
        return canned_metrics(p)

    if request.param == "session":
        evaluate = SweepSession.evaluate

        def spied(self, p):
            check(p, "flow")
            return evaluate(self, p)

        monkeypatch.setattr(SweepSession, "evaluate", spied)

    def go(points, memo, factory=FIR, fail_at=None, keys=None):
        failing.clear()
        failing.add(fail_at)
        outcomes, failures = memoized_run(
            SweepSession(factory, library), points, memo, workload="w",
            evaluator=evaluator if request.param == "evaluator" else None,
            keys=keys)
        return outcomes, failures, evaluated

    return go


def stored_names(memo):
    with open(memo.path, "r", encoding="utf-8") as handle:
        return [json.loads(line)["point"]["name"] for line in handle]


def test_each_distinct_key_is_looked_up_once_and_evaluated_once(memo, run):
    points = [point(4), point(5), point(4), point(5), point(4)]
    outcomes, failures, evaluated = run(points, memo)
    assert failures == []
    assert len(memo.looked_up) == 2
    assert sorted(evaluated) == [4, 5]
    assert [outcome.source for outcome in outcomes] \
        == [EVALUATED, EVALUATED, SHARED, SHARED, SHARED]
    assert outcomes[2].metrics is outcomes[0].metrics
    assert outcomes[0].key == outcomes[2].key != outcomes[1].key


def test_a_second_run_is_served_from_the_memo(memo, run):
    run([point(4), point(5)], memo)
    outcomes, failures, evaluated = run([point(5), point(4), point(5)], memo)
    assert failures == []
    assert sorted(evaluated) == [4, 5]  # the first run's evaluations only
    assert [outcome.source for outcome in outcomes] == [MEMO, MEMO, SHARED]
    assert outcomes[0].metrics["point"]["name"] == "fir_L5"


def test_successes_are_recorded_in_the_callers_order(memo, run):
    outcomes, _, _ = run([point(6), point(4), point(6), point(5)], memo)
    assert stored_names(memo) == ["fir_L6", "fir_L4", "fir_L5"]
    assert [record["workload"] for record in memo.records()] == ["w"] * 3
    assert memo.lookup(outcomes[1].key) == outcomes[1].metrics


def test_a_factory_failure_stays_in_its_point(memo, run):
    points = [point(4), point(5), point(6)]
    outcomes, failures, evaluated = run(points, memo,
                                        factory=FlakyFactory(5))
    assert [(f.point.name, f.error) for f in failures] \
        == [("fir_L5", "ReproError: no design")]
    assert outcomes[1] == (None, None, None)
    assert sorted(evaluated) == [4, 6]
    assert stored_names(memo) == ["fir_L4", "fir_L6"]


def test_an_evaluation_failure_stays_in_its_point(memo, run):
    points = [point(4), point(5), point(6), point(5)]
    outcomes, failures, evaluated = run(points, memo, fail_at=5)
    assert [f.point.name for f in failures] == ["fir_L5", "fir_L5"]
    assert all(f.error.startswith("ReproError: ") for f in failures)
    assert [outcome.metrics is None for outcome in outcomes] \
        == [False, True, False, True]
    assert outcomes[1].key is not None and outcomes[1].source is None
    assert sorted(evaluated) == [4, 5, 6]  # the shared key runs once
    assert stored_names(memo) == ["fir_L4", "fir_L6"]


def test_memo_cache_counts_the_traffic(tmp_path, run):
    cache = MemoCache(str(tmp_path / "memo.jsonl"))
    run([point(4), point(5), point(4)], cache)
    run([point(4), point(6)], cache)
    assert (cache.hits, cache.misses, cache.puts) == (1, 3, 3)


def test_given_keys_give_the_same_outcomes_failures_and_records(
        memo, run, tmp_path, monkeypatch):
    points = [point(6), point(4), point(6), point(5)]
    outcomes, failures, _ = run(points, memo, fail_at=5)
    keys = [outcome.key for outcome in outcomes]

    derived = []
    key_for = store_module.key_for

    def spy(design, p, *args, **kwargs):
        derived.append(p.name)
        return key_for(design, p, *args, **kwargs)

    monkeypatch.setattr(store_module, "key_for", spy)
    given = type(memo)(str(tmp_path / "given.jsonl"))
    again, again_failures, _ = run(points, given, fail_at=5, keys=keys)
    assert derived == []  # no design was built to key the points
    assert again == outcomes
    assert again_failures == failures
    with open(memo.path, "rb") as computed, open(given.path, "rb") as reused:
        assert reused.read() == computed.read()


def test_keys_of_the_wrong_length_raise(memo, library):
    key = StoreKey(fingerprint="f", clock_period=1500.0, pipeline_ii=None,
                   margin_fraction=0.05)
    session = SweepSession(FIR, library)
    for keys in ([key], [key] * 3):
        with pytest.raises(ReproError, match="keys for 2 points"):
            memoized_run(session, [point(4), point(5)], memo, keys=keys)
    assert memo.looked_up == [] and len(memo) == 0
