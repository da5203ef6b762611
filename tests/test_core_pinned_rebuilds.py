"""Per-edge re-budgeting: reweighted graphs equal fresh timed-DFG builds.

After every scheduled CFG edge the slack-guided scheduler reweights its
schedule pass's own copy of the design's compact timed graph
(:class:`repro.core.slack_scheduler._PassState`) instead of building a new
:class:`TimedDFG`.  These tests record every distinct ``(pinned,
not_before)`` re-budget of real :class:`SlackScheduler` runs and check each
pass graph against ``build_timed_dfg(design, spans=pinned_spans).compact()``:
same interning, CSR arrays, weights and topological order, float-for-float
equal kernels and delta-evaluator exports, and interned span tuples equal
to the ones recomputed from each operation's candidate edges.
"""

from collections import Counter

import pytest

from repro.core import analysis_cache, slack_scheduler
from repro.core.analysis_cache import AnalysisCache
from repro.core.delta_slack import DeltaSlackEvaluator
from repro.core.graphkit import arrival_kernel, required_kernel
from repro.core.opspan import OperationSpans, SpanInfo
from repro.core.slack_scheduler import SlackScheduler
from repro.core.timed_dfg import TimedDFG, build_timed_dfg
from repro.errors import ReproError
from repro.flows import conventional_flow, idct_design_points, slack_based_flow
from repro.ir.operations import OpKind
from repro.obs.trace import tracing
from repro.sched import relaxation
from repro.verify.scenarios import scenario_stream
from repro.workloads import IDCTPointFactory, idct_design

_POINTS = {point.name: point for point in idct_design_points(clock_period=1500.0)}


def _snapshot(graph):
    """A frozen copy of a pass graph, whose two weight views must agree."""
    weights = [0] * graph.num_edges
    for slot, edge in enumerate(graph._succ_edge):
        weights[edge] = graph.succ_weight[slot]
    copy = graph.reweighted(weights)
    assert copy.pred_weight == graph.pred_weight
    assert graph.pred_view()[2] == list(graph.pred_weight)
    assert graph.succ_view()[2] == list(graph.succ_weight)
    return copy


def _recorded_rebuilds(design, library, clock_period):
    """Every distinct per-edge re-budget of a scheduler run, as
    ``(artifacts, pinned, not_before, pass graph)``."""
    rebuilds = {}
    rebudget = slack_scheduler._PassState.rebudget

    def recording(state, edge_name, schedule, next_edge, pending):
        update = rebudget(state, edge_name, schedule, next_edge, pending)
        pinned = schedule.as_sched_map()
        key = (tuple(sorted(pinned.items())), next_edge)
        if key not in rebuilds:
            rebuilds[key] = (state._scheduler._artifacts, pinned, next_edge,
                             _snapshot(state._graph))
        return update

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slack_scheduler._PassState, "rebudget", recording)
        try:
            SlackScheduler(design, library, clock_period).run()
        except ReproError:
            pass  # an infeasible point still re-budgeted on its way there
    return list(rebuilds.values())


def _slowest_delays(design, library):
    return {op.name: (library.operation_delay(op, library.slowest_variant(op))
                      if op.is_synthesizable else library.operation_delay(op))
            for op in design.dfg.operations if op.kind is not OpKind.CONST}


def _candidate_span(latency, birth, early, late):
    """The span tuple of an op born on ``birth`` with these early/late edges."""
    candidates = [edge for edge in latency.forward_edge_names
                  if latency.control_compatible(edge, birth)]
    edges = tuple(edge for edge in candidates
                  if latency.reachable(early, edge)
                  and latency.reachable(edge, late))
    return edges or (early,)


def _check_rebuild(artifacts, spans, graph, delays, clock_period):
    design, latency = artifacts.design, artifacts.latency
    for name, info in spans.all_spans().items():
        birth = design.dfg.op(name).birth_edge
        assert info == SpanInfo(
            op=name, early=info.early, late=info.late,
            edges=_candidate_span(latency, birth, info.early, info.late))

    reference = build_timed_dfg(design, spans=spans, latency=latency).compact()
    assert graph.names == reference.names
    assert graph.op_indices == reference.op_indices
    for field in ("succ_indptr", "succ_dst", "succ_weight",
                  "pred_indptr", "pred_src", "pred_weight"):
        assert getattr(graph, field) == getattr(reference, field), field
    assert graph.topo == reference.topo

    vector = graph.delay_vector(delays)
    for aligned in (False, True):
        assert (arrival_kernel(graph, vector, clock_period, aligned=aligned)
                == arrival_kernel(reference, vector, clock_period,
                                  aligned=aligned))
        assert (required_kernel(graph, vector, clock_period, aligned=aligned)
                == required_kernel(reference, vector, clock_period,
                                   aligned=aligned))
    mine = DeltaSlackEvaluator(graph, vector, clock_period).export()
    theirs = DeltaSlackEvaluator(reference, vector, clock_period).export()
    assert mine == theirs
    assert list(mine.slack) == list(theirs.slack)


def _check_design(design, library, clock_period):
    rebuilds = _recorded_rebuilds(design, library, clock_period)
    delays = _slowest_delays(design, library)
    for artifacts, pinned, not_before, graph in rebuilds:
        spans = OperationSpans(design, latency=artifacts.latency,
                               pinned=pinned, not_before=not_before)
        _check_rebuild(artifacts, spans, graph, delays, clock_period)
    return len(rebuilds)


@pytest.mark.parametrize("name", sorted(_POINTS))
def test_idct_rows1_rebuilds_equal_fresh_builds(name, library):
    point = _POINTS[name]
    design = IDCTPointFactory(rows=1)(point)
    assert _check_design(design, library, point.clock_period) > 0


def test_idct_rows2_d8_rebuilds_equal_fresh_builds(library):
    point = _POINTS["D8"]
    design = IDCTPointFactory(rows=2)(point)
    assert _check_design(design, library, point.clock_period) > 0


def test_scenario_rebuilds_equal_fresh_builds(library):
    checked = 0
    for _, spec in scenario_stream(2024, 20):
        checked += _check_design(spec.design(), library, spec.clock_period)
    assert checked > 0


def test_block_slack_flow_builds_at_most_one_timed_dfg_per_design(
        monkeypatch, library):
    """The per-edge path reweights; only the design's own timed DFG is built."""
    monkeypatch.setattr(analysis_cache, "_default_cache", AnalysisCache())
    built = []
    original_init = TimedDFG.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(TimedDFG, "__init__", counting_init)
    design = idct_design(latency=8, rows=1, clock_period=1500.0)
    result = slack_based_flow(design, library)
    assert result.details["rebudget_count"] > 1
    assert len(built) <= 1


# -- spans inside scheduling ---------------------------------------------------------


def _spans_named(tracer, name):
    return [span for root in tracer.roots for span in root.walk()
            if span.name == name]


@pytest.mark.parametrize("name,scheduling", [("D8", "block"),
                                             ("D15", "pipeline")])
def test_sched_attempt_spans_count_each_flows_relaxation_attempts(
        name, scheduling, library):
    design = IDCTPointFactory(rows=1)(_POINTS[name])
    with tracing() as tracer:
        conventional = conventional_flow(design, library,
                                         scheduling=scheduling)
        slack = slack_based_flow(design, library, scheduling=scheduling)
    attempts = _spans_named(tracer, "sched.attempt")
    assert Counter(span.attrs["flow"] for span in attempts) == {
        "conventional": conventional.details["relaxation_attempts"],
        "slack-based": slack.details["relaxation_attempts"],
    }
    assert slack.details["relaxation_attempts"] > 1
    for flow in ("conventional", "slack-based"):
        mine = [span.attrs for span in attempts if span.attrs["flow"] == flow]
        assert [attrs["attempt"] for attrs in mine] == \
            list(range(1, len(mine) + 1))
        # Every pass but the successful last one names its failure.
        assert all(attrs.get("failure") for attrs in mine[:-1])
        assert "failure" not in mine[-1]


@pytest.mark.parametrize("name,scheduling", [("D8", "block"),
                                             ("D15", "pipeline")])
def test_failed_sched_attempts_name_the_move_that_followed(
        name, scheduling, library, monkeypatch):
    logs = []

    class _KeptLog(relaxation.RelaxationLog):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            logs.append(self)

    monkeypatch.setattr(relaxation, "RelaxationLog", _KeptLog)
    design = IDCTPointFactory(rows=1)(_POINTS[name])
    with tracing() as tracer:
        conventional_flow(design, library, scheduling=scheduling)
        slack_based_flow(design, library, scheduling=scheduling)
    attempts = [span.attrs for span in _spans_named(tracer, "sched.attempt")]
    assert all(("move" in attrs) == ("failure" in attrs) for attrs in attempts)
    moves = [attrs["move"] for attrs in attempts if "move" in attrs]
    assert moves == [message for log in logs for message in log.messages]
    assert moves


def test_sched_rebudget_spans_count_the_rebudgets(library):
    design = IDCTPointFactory(rows=1)(_POINTS["D5"])
    with tracing() as tracer:
        result = slack_based_flow(design, library)
    rebudgets = _spans_named(tracer, "sched.rebudget")
    assert not any("error" in span.attrs for span in rebudgets)
    assert len(rebudgets) == result.details["rebudget_count"] > 0
    assert all(span.attrs["edge"] for span in rebudgets)
