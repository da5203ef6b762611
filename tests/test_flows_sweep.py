"""Tests of the batched sweep-session evaluation API.

The contract under test everywhere: a :class:`repro.flows.sweep.SweepSession`
is observationally identical to independent per-point
:func:`repro.flows.dse.evaluate_point` runs — float for float in the metrics
JSON — while actually sharing designs, artifact bundles and warm delta
caches across the points.
"""

import json
import threading
import warnings

import pytest

from repro.errors import ReproError
from repro.flows import (
    DesignPoint,
    PointFailure,
    SweepSession,
    evaluate_point,
    idct_design_points,
    knob_distance,
    latency_grid,
    run_dse,
    sweep_plan,
)
from repro.core import analysis_cache
from repro.core.analysis_cache import AnalysisCache, default_cache
from repro.lib.tsmc90 import tsmc90_library
from repro.obs.metrics import cache_stats
from repro.obs.trace import tracing
from repro.verify.scenarios import generate_scenario
from repro.workloads.factories import IDCTPointFactory, KernelPointFactory

CLOCK = 1500.0


@pytest.fixture(scope="module")
def library():
    return tsmc90_library()


@pytest.fixture(scope="module")
def factory():
    return KernelPointFactory("fir", params=(("taps", 8),))


def _metrics_json(entry) -> str:
    return json.dumps(entry.metrics(), sort_keys=True)


# -- ordering ----------------------------------------------------------------------


def test_sweep_plan_is_a_permutation():
    points = [
        DesignPoint("a", latency=8, clock_period=2000.0),
        DesignPoint("b", latency=6, clock_period=1500.0),
        DesignPoint("c", latency=8, clock_period=1500.0),
        DesignPoint("d", latency=6, pipeline_ii=3, clock_period=1500.0),
        DesignPoint("e", latency=6, clock_period=1200.0),
    ]
    plan = sweep_plan(points)
    assert sorted(plan) == list(range(len(points)))
    ordered = [points[i] for i in plan]
    # Structure-grouped: both latency-8 non-pipelined points are adjacent,
    # clocks ascending within the group; pipelined trails its latency group.
    assert [p.name for p in ordered] == ["e", "b", "d", "c", "a"]


def test_sweep_plan_neighbors_share_structure_when_possible():
    points = latency_grid(6, 8, clock_period=CLOCK) \
        + latency_grid(6, 8, clock_period=2 * CLOCK, prefix="S")
    ordered = [points[i] for i in sweep_plan(points)]
    # Every same-latency pair must be adjacent (differ only in the clock).
    for left, right in zip(ordered, ordered[1:]):
        if left.latency == right.latency:
            assert knob_distance(left, right) == 1


def test_sweep_plan_is_stable_for_identical_knobs():
    points = [DesignPoint(f"p{i}", latency=6, clock_period=CLOCK)
              for i in range(4)]
    assert sweep_plan(points) == [0, 1, 2, 3]


def test_knob_distance_counts_differing_knobs():
    base = DesignPoint("x", latency=6, clock_period=CLOCK)
    assert knob_distance(base, base) == 0
    assert knob_distance(
        base, DesignPoint("y", latency=6, clock_period=2000.0)) == 1
    assert knob_distance(
        base, DesignPoint("z", latency=8, pipeline_ii=4,
                          clock_period=2000.0)) == 3


# -- session semantics -------------------------------------------------------------


def test_run_returns_entries_in_caller_order(library, factory):
    points = [
        DesignPoint("late", latency=8, clock_period=CLOCK),
        DesignPoint("early", latency=6, clock_period=CLOCK),
        DesignPoint("mid", latency=7, clock_period=CLOCK),
    ]
    result = SweepSession(factory, library).run(points)
    assert [entry.point.name for entry in result.entries] \
        == ["late", "early", "mid"]


def test_session_matches_per_point_evaluation(library, factory):
    points = [
        DesignPoint("a", latency=6, clock_period=CLOCK),
        DesignPoint("b", latency=6, clock_period=1.25 * CLOCK),
        DesignPoint("c", latency=8, clock_period=CLOCK),
    ]
    session = SweepSession(factory, library)
    batched = session.run(points)
    for point, entry in zip(points, batched.entries):
        solo = evaluate_point(factory, library, point)
        assert _metrics_json(entry) == _metrics_json(solo), point.name


def test_session_counts_delta_and_fallback_points(library, factory):
    before = cache_stats()["analysis_cache"]
    session = SweepSession(factory, library)
    same_structure = DesignPoint("p0", latency=6, clock_period=CLOCK)
    session.evaluate(same_structure)
    assert session.stats.full_evaluations == 1
    assert session.stats.delta_points == 0
    # Same structure at a different clock: delta path, shared bundle.
    session.evaluate(DesignPoint("p0", latency=6, clock_period=1.2 * CLOCK))
    assert session.stats.delta_points == 1
    assert session.stats.interned_reuses == 1
    # A structurally diverging point falls back to a full evaluation.
    session.evaluate(DesignPoint("p1", latency=8, clock_period=CLOCK))
    assert session.stats.full_evaluations == 2
    assert session.stats.points_evaluated == 3
    # The budgeting kernel's delta re-evaluations are process-wide totals.
    after = cache_stats()["analysis_cache"]
    evaluators = after["delta_evaluators"] - before["delta_evaluators"]
    assert evaluators > 0
    assert after["delta_updates"] - before["delta_updates"] >= evaluators


def test_private_session_never_touches_shared_cache(monkeypatch, library,
                                                   factory):
    """A session keeps its own bundle per structure: it never looks up the
    process-wide artifacts table."""
    monkeypatch.setattr(analysis_cache, "_default_cache", AnalysisCache())
    session = SweepSession(factory, library)
    session.evaluate(DesignPoint("p0", latency=6, clock_period=CLOCK))
    session.evaluate(DesignPoint("p0", latency=6, clock_period=1.2 * CLOCK))
    info = default_cache().cache_info()
    assert info["artifacts"]["hits"] == info["artifacts"]["misses"] == 0
    assert info["budget_templates"]["misses"] > 0  # the patch was in force


def test_seeded_property_sweep_batched_equals_per_point(library):
    """The ISSUE's property sweep: segmented designs (mixed widths, wait
    states, diamond CFGs) across clock-period knobs, batched == per-point
    float for float."""
    for seed in (5, 29, 73):
        spec = generate_scenario(seed)
        factory = spec.factory()
        points = [
            spec.point("q0"),
            spec.point("q1", clock_period=spec.clock_period * 1.25),
            spec.point("q2", clock_period=spec.clock_period * 0.8),
        ]
        session = SweepSession(factory, library,
                               margin_fraction=spec.margin_fraction)

        def evaluate(callable_):
            try:
                return _metrics_json(callable_()), None
            except Exception as exc:  # infeasible scenarios must agree too
                return None, f"{type(exc).__name__}: {exc}"

        for point in points:
            got, got_error = evaluate(lambda: session.evaluate(point))
            want, want_error = evaluate(lambda: evaluate_point(
                factory, library, point,
                margin_fraction=spec.margin_fraction))
            assert got_error == want_error, f"seed={seed} {point.name}"
            assert got == want, f"seed={seed} {point.name}"


# -- shims and rewired call paths --------------------------------------------------


def test_run_dse_flows_argument_is_gone(library, factory):
    """The PR-6 deprecated ``flows=`` selector has been removed for good."""
    points = [DesignPoint("p0", latency=6, clock_period=CLOCK)]
    with pytest.raises(TypeError):
        run_dse(factory, library, points, flows=("conventional", "slack"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and the clean call emits no warning
        run_dse(factory, library, points)


def test_evaluate_point_shim_matches_session_path(library, factory):
    """The one-point shim and an explicit session agree byte for byte."""
    point = DesignPoint("p0", latency=6, clock_period=CLOCK)
    shim = evaluate_point(factory, library, point)
    session = SweepSession(factory, library)
    assert _metrics_json(shim) == _metrics_json(session.evaluate(point))


# -- run(): failure isolation and the process pool -----------------------------------


class FailingFactory(IDCTPointFactory):
    """Raises on one named point; builds the IDCT everywhere else."""

    def __call__(self, point):
        if point.name == "P1":
            raise ValueError("injected failure on P1")
        return super().__call__(point)


def idct_points():
    return [DesignPoint("P0", latency=8, clock_period=CLOCK),
            DesignPoint("P1", latency=12, clock_period=CLOCK),
            DesignPoint("P2", latency=16, clock_period=CLOCK)]


def _assert_only_p1_failed(result):
    assert [entry.point.name for entry in result.entries] == ["P0", "P2"]
    assert result.failures == [
        PointFailure(idct_points()[1], "ValueError: injected failure on P1")]
    # The good entries stay fully usable; callers that need every point
    # can still insist on it.
    assert result.area_range() >= 1.0
    with pytest.raises(ReproError, match="P1: ValueError"):
        result.raise_on_failures()


def test_failing_point_is_isolated(library):
    _assert_only_p1_failed(
        SweepSession(FailingFactory(rows=1), library).run(idct_points()))


def test_failing_point_is_isolated_in_process_pool(library):
    _assert_only_p1_failed(
        SweepSession(FailingFactory(rows=1), library).run(idct_points(),
                                                          workers=2))


def test_base_exceptions_propagate(library):
    class Interrupting(IDCTPointFactory):
        def __call__(self, point):
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        SweepSession(Interrupting(rows=1), library).run(idct_points())


def test_pool_matches_serial_run_dse(library):
    """Two workers over the 15-point IDCT sweep return the serial entries:
    input order, metrics and schedules alike."""
    points = idct_design_points(clock_period=CLOCK)
    factory = IDCTPointFactory(rows=1)
    serial = run_dse(factory, library, points)
    session = SweepSession(factory, library)
    pooled = session.run(points, workers=2)
    assert not pooled.failures
    assert [entry.point.name for entry in pooled.entries] \
        == [point.name for point in points]
    assert json.dumps(pooled.metrics_list(), sort_keys=True) \
        == json.dumps(serial.metrics_list(), sort_keys=True)
    for par, ser in zip(pooled.entries, serial.entries):
        assert (par.conventional.schedule.as_sched_map()
                == ser.conventional.schedule.as_sched_map())
        assert (par.slack_based.schedule.as_sched_map()
                == ser.slack_based.schedule.as_sched_map())
    # Pool evaluations happen in the workers' own sessions (see SweepStats).
    assert session.stats.points_evaluated == 0


def test_pool_is_spawned_while_other_threads_run(library, monkeypatch):
    """Forking a threaded process can deadlock the child, so a pool started
    beside another thread is spawned — with the same results."""
    import multiprocessing

    real_get_context = multiprocessing.get_context
    methods = []
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: (
        methods.append(method) or real_get_context(method)))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    thread.start()
    try:
        pooled = SweepSession(IDCTPointFactory(rows=1), library).run(
            idct_points(), workers=2)
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert methods == ["spawn"]
    serial = SweepSession(IDCTPointFactory(rows=1), library).run(idct_points())
    assert pooled.metrics_list() == serial.metrics_list()


def test_unpicklable_factory_runs_serially(library):
    session = SweepSession(lambda point: IDCTPointFactory(rows=1)(point),
                           library)
    result = session.run(idct_points()[:2], workers=2)
    assert len(result.entries) == 2
    # Evaluated in this process, not in a pool worker: the session counted.
    assert session.stats.points_evaluated == 2


def test_run_rejects_fewer_than_one_worker(library, factory):
    with pytest.raises(ReproError, match="workers"):
        SweepSession(factory, library).run(idct_points(), workers=0)


def test_process_workers_ship_spans_back_to_the_parent_tracer(library):
    points = idct_points()[:2]
    factory = IDCTPointFactory(rows=1)
    with tracing() as tracer:
        result = SweepSession(factory, library).run(points, workers=2)
    assert not result.failures
    adopted = [root for root in tracer.roots
               if root.track.startswith("worker:")]
    assert {root.track for root in adopted} == {"worker:P0", "worker:P1"}
    # Worker trees carry the full per-point phase structure.
    names = {span.name for root in adopted for span in root.walk()}
    assert "flow.schedule" in names
    # Tracing observes; it must not perturb the sweep result.
    untraced = SweepSession(factory, library).run(points, workers=2)
    assert result.metrics_list() == untraced.metrics_list()
