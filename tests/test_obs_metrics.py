"""Tests of the metrics registry and the adopted ad-hoc counters."""

import os
import sys
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    cache_stats,
    counter,
    histogram,
    registry,
    snapshot,
)


# -- metric primitives -------------------------------------------------------------


def test_counter_gauge_histogram_semantics():
    reg = MetricsRegistry()
    c = reg.counter("c")
    c.inc()
    c.inc(4)
    assert c.value == 5
    h = reg.histogram("h")
    for value in (1.0, 3.0, 2.0):
        h.observe(value)
    assert h.summary() == {"count": 3, "total": 6.0, "mean": 2.0,
                           "min": 1.0, "max": 3.0}


def test_creation_is_idempotent_and_shared():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.histogram("z") is reg.histogram("z")
    assert isinstance(reg.counter("x"), Counter)
    assert isinstance(reg.histogram("z"), Histogram)


class _One(int):
    """1, added by a Python-level method: the interpreter may switch
    threads in the middle of ``value += _One()``."""

    def __radd__(self, other):
        return other + 1


class _Second(float):
    """1.0, added by a Python-level method (see :class:`_One`)."""

    def __radd__(self, other):
        return other + 1.0


def test_threads_lose_no_increments():
    """More threads than cores add to one counter and one histogram while
    the interpreter switches threads as often as it can, inside the
    increments too; every increment must land.  Bounded: a fixed number of
    rounds and a join timeout."""
    reg = MetricsRegistry()
    tally = reg.counter("tally")
    timings = reg.histogram("timings")
    workers, rounds = (os.cpu_count() or 1) + 4, 5000
    start = threading.Barrier(workers)

    def work():
        start.wait(timeout=30)
        for _ in range(rounds):
            tally.inc(_One(1))
            timings.observe(_Second(1.0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, daemon=True)
                   for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert tally.value == workers * rounds
    summary = timings.summary()
    assert (summary["count"], summary["total"]) == (workers * rounds,
                                                    float(workers * rounds))


def test_snapshot_is_json_safe_and_sorted():
    import json

    reg = MetricsRegistry()
    reg.counter("b").inc()
    reg.counter("a").inc(2)
    reg.histogram("h").observe(0.5)
    snap = reg.snapshot()
    json.dumps(snap)  # JSON-safe by construction
    assert list(snap) == ["counters", "histograms"]
    assert list(snap["counters"]) == ["a", "b"]
    assert snap["counters"]["a"] == 2
    assert snap["histograms"]["h"]["count"] == 1


# -- process-wide registry and cache introspection ----------------------------------


def test_module_level_registry_is_shared():
    counter("test.shared").inc()
    assert registry().counter("test.shared").value >= 1
    assert counter("test.shared") is registry().counter("test.shared")
    assert snapshot()["counters"]["test.shared"] >= 1


def test_cache_stats_covers_every_cache_layer(library):
    from repro.flows.dse import DesignPoint, evaluate_point
    from repro.workloads import IDCTPointFactory

    point = DesignPoint(name="CS", latency=8, clock_period=1500.0)
    evaluate_point(IDCTPointFactory(rows=1), library, point)

    stats = cache_stats()
    assert set(stats) == {"analysis_cache", "delta_seeds", "jsonl_stores",
                          "serve"}
    assert {"hits", "misses", "puts", "compactions",
            "keys_reused"} <= set(stats["serve"])
    assert {"skipped_lines", "appended_records"} \
        <= set(stats["jsonl_stores"])
    # The analysis-cache section reads the public cache_info() tables.
    for table in ("artifacts", "spans", "sequential_slack",
                  "budget_templates", "span_templates"):
        assert {"hits", "misses"} <= set(stats["analysis_cache"][table])
    assert {"hits", "misses", "inserts"} <= set(stats["delta_seeds"])


# -- adopted ad-hoc counters keep their public accessors ---------------------------


def test_sweep_counters_twin_the_session_stats(library):
    from repro.flows.dse import DesignPoint
    from repro.flows.sweep import SweepSession
    from repro.workloads import IDCTPointFactory

    before = {name: counter(name).value
              for name in ("sweep.points_evaluated", "sweep.full_evaluations",
                           "sweep.delta_points")}
    session = SweepSession(IDCTPointFactory(rows=1), library)
    points = [DesignPoint(name=f"T{lat}", latency=lat, clock_period=1500.0)
              for lat in (6, 8)]
    session.run(points)
    # The public accessor is untouched ...
    assert session.stats.points_evaluated == 2
    assert session.stats.full_evaluations + session.stats.delta_points == 2
    # ... and the registry twins advanced by exactly the same amounts.
    assert counter("sweep.points_evaluated").value \
        == before["sweep.points_evaluated"] + 2
    assert (counter("sweep.full_evaluations").value
            + counter("sweep.delta_points").value) \
        == (before["sweep.full_evaluations"]
            + before["sweep.delta_points"] + 2)


def test_relaxation_counters_twin_the_log(library):
    from repro.flows.conventional import conventional_flow
    from repro.workloads import IDCTPointFactory
    from repro.flows.dse import DesignPoint

    before = counter("relaxation.attempts").value
    design = IDCTPointFactory(rows=1)(
        DesignPoint(name="R", latency=8, clock_period=1500.0))
    result = conventional_flow(design, library, clock_period=1500.0)
    attempts = result.details["relaxation_attempts"]
    assert attempts >= 1
    assert counter("relaxation.attempts").value >= before + attempts


def test_relaxation_counters_count_the_slack_flow(library):
    from repro.flows.slack_based import slack_based_flow
    from repro.workloads import IDCTPointFactory
    from repro.flows.dse import DesignPoint

    design = IDCTPointFactory(rows=1)(
        DesignPoint(name="R", latency=8, clock_period=1500.0))
    before = counter("relaxation.attempts").value
    result = slack_based_flow(design, library, clock_period=1500.0)
    attempts = result.details["relaxation_attempts"]
    assert attempts >= 1
    assert counter("relaxation.attempts").value == before + attempts


def test_oracle_counters_and_timing_histograms(library):
    from repro.verify.oracles import ORACLES
    from repro.verify.runner import run_oracle_guarded
    from repro.verify.scenarios import scenario_stream

    oracle = ORACLES["sequential-slack"]
    (_, spec), = list(scenario_stream(3, 1))
    before_pass = counter("oracle.pass").value
    before_count = histogram("oracle.sequential-slack.seconds").count
    outcome = run_oracle_guarded(oracle, spec, library)
    assert outcome.ok
    assert counter("oracle.pass").value == before_pass + 1
    hist = histogram("oracle.sequential-slack.seconds")
    assert hist.count == before_count + 1
    assert hist.total > 0.0


def test_oracle_crash_is_counted(library):
    from repro.verify.oracles import Oracle
    from repro.verify.runner import run_oracle_guarded
    from repro.verify.scenarios import scenario_stream

    def exploding_check(spec, lib):
        raise IndexError("deep engine crash")

    exploding = Oracle(name="exploding-test-oracle",
                       description="always crashes", check=exploding_check)
    (_, spec), = list(scenario_stream(3, 1))
    before = counter("oracle.crash").value
    outcome = run_oracle_guarded(exploding, spec, library)
    assert not outcome.ok and "crash" in outcome.details
    assert counter("oracle.crash").value == before + 1
