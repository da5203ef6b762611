"""OpSpans and timed-DFG weights pinned against a plain scan of Definition 4.

:func:`reference_spans` computes every operation's span the direct way: it
walks the operation's control-compatible candidate edges in topological
order and asks one reachability question per edge and neighbour.  The tests
compare :class:`OperationSpans` with it on

* every per-edge ``(pinned, not_before)`` re-budget the slack-guided
  scheduler makes on the IDCT rows=1 points D1-D15 and rows=2 D8 (the
  spans it hands the list scheduler and the weights of its pass graph);
* random pinned prefixes and floors on forty fuzz scenarios, branchy ones
  included;
* the paper's interpolation and resizer designs, with and without
  ``strict_io_successors``;
* constructed designs that exercise backward edges and the "no feasible
  early edge" error.

Each case also checks :func:`timed_edge_weights` against weights computed
here by name with ``LatencyAnalysis.latency``, including which edge fails
first and the error text.
"""

import random

import pytest

from repro.core import analysis_cache, slack_scheduler
from repro.core.analysis_cache import AnalysisCache
from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans, SpanInfo
from repro.core.slack_scheduler import SlackScheduler
from repro.core.timed_dfg import is_sink_name, sink_name, timed_edge_weights
from repro.errors import ReproError, TimingError
from repro.flows import idct_design_points
from repro.ir.builder import DesignBuilder, LinearDesignBuilder
from repro.ir.operations import OpKind
from repro.verify.scenarios import scenario_stream
from repro.workloads import IDCTPointFactory

_POINTS = {point.name: point for point in idct_design_points(clock_period=1500.0)}


def reference_spans(design, latency, pinned=None, not_before=None,
                    strict_io_successors=False):
    """Definition 4 by a scan of each operation's candidate edges."""
    dfg, cfg = design.dfg, design.cfg
    pinned = pinned or {}
    floor = None if not_before is None else latency.edge_order(not_before)
    reachable = latency.reachable
    order = dfg.topological_order()

    records = {}
    for name in order:
        op = dfg.op(name)
        birth = op.birth_edge
        if birth is None:
            raise TimingError(f"operation {name!r} has no birth edge")
        if not cfg.has_edge(birth):
            raise TimingError(
                f"operation {name!r} born on unknown edge {birth!r}")
        candidates = [edge for edge in latency.forward_edge_names
                      if latency.control_compatible(edge, birth)]
        preds = [pred for pred in dfg.predecessors(name)
                 if dfg.op(pred).kind is not OpKind.CONST]
        succs = [(succ, dfg.op(succ).is_fixed) for succ in dfg.successors(name)]
        late_fixed = op.is_fixed or bool(op.attrs.get("branch_condition"))
        records[name] = (birth, candidates, op.is_fixed, late_fixed, preds,
                         succs)

    early = {}
    for name in order:
        birth, candidates, early_fixed, _, preds, _ = records[name]
        if pinned.get(name) is not None:
            early[name] = pinned[name]
            continue
        if early_fixed:
            early[name] = birth
            continue
        chosen = None
        for edge in candidates:
            if floor is not None and latency.edge_order(edge) < floor:
                continue
            if all(reachable(early[pred], edge) for pred in preds):
                chosen = edge
                break
        if chosen is None:
            raise TimingError(
                f"operation {name!r} has no feasible early edge "
                f"(birth {birth!r}); the design is structurally infeasible")
        early[name] = chosen

    late = {}
    for name in reversed(order):
        birth, candidates, _, late_fixed, _, succs = records[name]
        if pinned.get(name) is not None:
            late[name] = pinned[name]
            continue
        if late_fixed:
            late[name] = birth
            continue
        chosen = early[name]
        for edge in reversed(candidates):
            if not reachable(early[name], edge):
                continue
            if all(latency.strictly_reachable(edge, late[succ])
                   if succ_fixed and strict_io_successors
                   else reachable(edge, late[succ])
                   for succ, succ_fixed in succs):
                chosen = edge
                break
        late[name] = chosen

    spans = {}
    for name in order:
        if pinned.get(name) is not None:
            edges = (early[name],)
        else:
            edges = tuple(
                edge for edge in records[name][1]
                if reachable(early[name], edge) and reachable(edge, late[name])
            ) or (early[name],)
        spans[name] = SpanInfo(op=name, early=early[name], late=late[name],
                               edges=edges)
    return spans


def _timed_edges(design):
    """The ``(src, dst)`` edges of the design's timed DFG, in build order."""
    included = [op.name for op in design.dfg.operations
                if op.kind is not OpKind.CONST]
    members = set(included)
    edges = [(edge.src, edge.dst) for edge in design.dfg.forward_edges
             if edge.src in members and edge.dst in members]
    edges.extend((name, sink_name(name)) for name in included)
    return edges


def _expected_weights(edges, spans, latency):
    """Step 4 of Definition 2 by name: the weights before the first failing
    edge, and that edge's error text (None when every edge has a weight)."""
    weights = []
    for src, dst in edges:
        info = spans.span(src)
        if is_sink_name(dst):
            weight = latency.latency(info.early, info.late)
            if weight is None:
                return weights, (f"operation {src!r} has a late edge "
                                 f"unreachable from its early edge")
        else:
            dst_early = spans.span(dst).early
            weight = latency.latency(info.early, dst_early)
            if weight is None:
                return weights, (
                    f"data edge {src!r} -> {dst!r} connects operations whose "
                    f"early edges ({info.early!r}, {dst_early!r}) are not "
                    f"forward related")
        weights.append(weight)
    return weights, None


def _assert_weights(edges, spans, latency):
    weights, error = _expected_weights(edges, spans, latency)
    if error is None:
        assert timed_edge_weights(edges, spans, latency) == weights
    else:
        with pytest.raises(TimingError) as raised:
            timed_edge_weights(edges, spans, latency)
        assert str(raised.value) == error
    return error


def _assert_matches_reference(design, latency, pinned=None, not_before=None,
                              strict=False):
    """Compare one build with the reference; returns the spans (or None when
    both sides raise the same :class:`TimingError`)."""
    kwargs = dict(latency=latency, pinned=pinned, not_before=not_before,
                  strict_io_successors=strict)
    try:
        expected = reference_spans(design, latency, pinned, not_before, strict)
    except TimingError as error:
        with pytest.raises(TimingError) as raised:
            OperationSpans(design, **kwargs)
        assert str(raised.value) == str(error)
        return None
    first = OperationSpans(design, **kwargs)
    assert list(first.all_spans().items()) == list(expected.items())
    second = OperationSpans(design, **kwargs)
    assert all(second.span(name) is info
               for name, info in first.all_spans().items())
    _assert_weights(_timed_edges(design), first, latency)
    return first


# -- the slack scheduler's per-edge rebuilds ---------------------------------------


def _pass_weights(graph):
    """A pass graph's weights in timed-DFG edge order."""
    weights = [0] * graph.num_edges
    for slot, edge in enumerate(graph._succ_edge):
        weights[edge] = graph.succ_weight[slot]
    return weights


def _check_scheduler_rebuilds(design, library, clock_period):
    requests = {}
    rebudget = slack_scheduler._PassState.rebudget

    def recording(state, edge_name, schedule, next_edge, pending):
        spans, _ = update = rebudget(state, edge_name, schedule, next_edge,
                                     pending)
        pinned = schedule.as_sched_map()
        key = (tuple(sorted(pinned.items())), next_edge)
        requests.setdefault(key, (state._scheduler._artifacts, pinned,
                                  next_edge, pending, spans,
                                  _pass_weights(state._graph)))
        return update

    # The span templates, and with them the interned SpanInfo objects the
    # identity check below compares, live in the patched cache.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis_cache, "_default_cache", AnalysisCache())
        patch.setattr(slack_scheduler._PassState, "rebudget", recording)
        try:
            SlackScheduler(design, library, clock_period).run()
        except ReproError:
            pass  # an infeasible point still rebuilt spans on its way there
        for artifacts, pinned, not_before, pending, cached, weights in \
                requests.values():
            latency = artifacts.latency
            spans = _assert_matches_reference(design, latency, pinned,
                                              not_before)
            assert spans is not None
            assert all(cached.span(name) is spans.span(name)
                       for name in pending)
            assert _expected_weights(list(artifacts.timed.edge_pairs()),
                                     spans, latency) == (weights, None)
    return len(requests)


@pytest.mark.parametrize("name", sorted(_POINTS))
def test_idct_rows1_scheduler_rebuilds_match_the_scan(name, library):
    point = _POINTS[name]
    design = IDCTPointFactory(rows=1)(point)
    assert _check_scheduler_rebuilds(design, library, point.clock_period) > 0


def test_idct_rows2_d8_scheduler_rebuilds_match_the_scan(library):
    point = _POINTS["D8"]
    design = IDCTPointFactory(rows=2)(point)
    assert _check_scheduler_rebuilds(design, library, point.clock_period) > 0


# -- random pinned prefixes on fuzz scenarios --------------------------------------


def _random_prefix(design, latency, floor, rng):
    """Pin some operations, in topological order, to random edges of their
    current spans that lie before ``floor`` (a scheduler-like prefix)."""
    limit = latency.edge_order(floor)
    before = set(latency.forward_edge_names[:limit])
    pinned = {}
    spans = reference_spans(design, latency)
    for name in design.dfg.topological_order():
        choices = [edge for edge in spans[name].edges if edge in before]
        if choices and rng.random() < 0.6:
            pinned[name] = rng.choice(choices)
            spans = reference_spans(design, latency, pinned)
    return pinned


def test_random_prefixes_on_fuzz_scenarios_match_the_scan():
    rng = random.Random(2024)
    built = failed = branchy = 0
    for _, spec in scenario_stream(2024, 40):
        design = spec.design()
        latency = LatencyAnalysis(design.cfg)
        if any(segment[0] == "diamond" for segment in spec.segments):
            branchy += 1
        edges = latency.forward_edge_names
        for strict in (False, True):
            assert _assert_matches_reference(design, latency,
                                             strict=strict) is not None
            for _ in range(3):
                floor = rng.choice(edges)
                pinned = _random_prefix(design, latency, floor, rng)
                spans = _assert_matches_reference(design, latency, pinned,
                                                  floor, strict)
                if spans is None:
                    failed += 1
                else:
                    built += 1
    assert branchy >= 5
    assert built > 5 * failed


# -- the paper's designs -----------------------------------------------------------


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("fixture", ["interpolation", "resizer_full",
                                     "resizer_main"])
def test_paper_designs_match_the_scan(fixture, strict, request):
    design = request.getfixturevalue(fixture)
    latency = LatencyAnalysis(design.cfg)
    floors = [None] + latency.forward_edge_names
    for floor in floors:
        _assert_matches_reference(design, latency, not_before=floor,
                                  strict=strict)
    free = reference_spans(design, latency, strict_io_successors=strict)
    for name, info in free.items():
        for edge in info.edges:
            for floor in floors:
                _assert_matches_reference(design, latency, {name: edge},
                                          floor, strict)


# -- constructed cases ---------------------------------------------------------------


def _two_exit_design():
    """start -e1-> s1, then s1 -e2-> s2 and s1 -e3-> s3 with no join."""
    builder = DesignBuilder("two_exit")
    builder.start_node("start")
    for state in ("s1", "s2", "s3"):
        builder.state_node(state)
    builder.edge("start", "s1", name="e1")
    builder.edge("s1", "s2", name="e2", condition="taken")
    builder.edge("s1", "s3", name="e3", condition="not_taken")
    builder.read("a", "e1", width=8, name="rd")
    builder.binary(OpKind.ADD, "rd", "rd", "e2", width=8, name="add")
    return builder.build()


def test_no_feasible_early_edge_raises_the_same_error():
    design = _two_exit_design()
    latency = LatencyAnalysis(design.cfg)
    assert _assert_matches_reference(design, latency) is not None
    # Past the floor e3 nothing is control compatible with add's birth e2.
    assert _assert_matches_reference(design, latency, not_before="e3") is None
    with pytest.raises(TimingError, match="'add' has no feasible early edge "
                                          r"\(birth 'e2'\)"):
        OperationSpans(design, latency=latency, not_before="e3")


def _linear_design(born_on="e2"):
    builder = LinearDesignBuilder("linear", num_states=3)
    builder.read("a", "e1", width=8, name="rd")
    builder.binary(OpKind.ADD, "rd", "rd", born_on, width=8, name="x")
    builder.binary(OpKind.MUL, "x", "rd", "e2", width=8, name="y")
    builder.write("out", "e3", "y", width=8, name="wr")
    return builder.build()


def test_backward_edges_match_the_scan():
    design = _linear_design()
    latency = LatencyAnalysis(design.cfg)
    for strict in (False, True):
        for floor in (None, "e1", "e2", "e3"):
            spans = _assert_matches_reference(
                design, latency, {"x": "loop_back"}, floor, strict)
            assert spans.span("x").edges == ("loop_back",)
            _assert_matches_reference(design, latency, {"y": "loop_back"},
                                      floor, strict)
    # An operation born on the back edge has no forward candidate at all.
    born_back = _linear_design(born_on="loop_back")
    assert _assert_matches_reference(
        born_back, LatencyAnalysis(born_back.cfg)) is None


def test_weights_raise_at_the_first_failing_data_edge(resizer_main):
    latency = LatencyAnalysis(resizer_main.cfg)
    spans = OperationSpans(resizer_main, latency=latency,
                           pinned={"div": "e2", "sub": "e3", "mul": "e2"})
    edges = _timed_edges(resizer_main)
    error = _assert_weights(edges, spans, latency)
    assert error == ("data edge 'div' -> 'sub' connects operations whose "
                     "early edges ('e2', 'e3') are not forward related")
    # Moved to the end, it yields to the next failing edge in the list.
    reordered = [edge for edge in edges if edge != ("div", "sub")]
    reordered.append(("div", "sub"))
    assert _assert_weights(reordered, spans, latency) == (
        "data edge 'rd_b' -> 'mul' connects operations whose early edges "
        "('e5', 'e2') are not forward related")


def test_weights_raise_at_a_sink_edge_whose_late_edge_precedes_early(
        resizer_full):
    latency = LatencyAnalysis(resizer_full.cfg)
    spans = OperationSpans(resizer_full, latency=latency, not_before="e6")
    assert (spans.early("cmp"), spans.late("cmp")) == ("e6", "e1")
    error = _assert_weights(_timed_edges(resizer_full), spans, latency)
    assert error == ("operation 'cmp' has a late edge unreachable from its "
                     "early edge")


def test_weights_on_backward_early_edges_use_cfg_latency():
    design = _linear_design()
    latency = LatencyAnalysis(design.cfg)
    spans = OperationSpans(design, latency=latency, pinned={"x": "loop_back"})
    edges = _timed_edges(design)
    assert _assert_weights(edges, spans, latency) is None
    weights = timed_edge_weights(edges, spans, latency)
    # rd (e1) -> x (loop_back) crosses the states s1, s2 and s3.
    assert weights[edges.index(("rd", "x"))] == 3
    assert weights[edges.index(("x", sink_name("x")))] == 0
