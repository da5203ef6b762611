"""Property-based tests (hypothesis) on the core analyses and data structures."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bellman_ford import compute_sequential_slack_bellman_ford
from repro.core.budgeting import budget_slack
from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans
from repro.core.sequential_slack import compute_sequential_slack
from repro.core.timed_dfg import build_timed_dfg, is_sink_name
from repro.ir.operations import OpKind
from repro.lib import tsmc90_library
from repro.sched.allocation import minimal_allocation, resource_class_key
from repro.sched.list_scheduler import try_list_schedule
from repro.sched.modulo_scheduler import try_modulo_schedule
from repro.workloads import random_layered_design, segmented_design

_LIBRARY = tsmc90_library()

_design_params = st.tuples(
    st.integers(min_value=0, max_value=10 ** 6),     # seed
    st.integers(min_value=1, max_value=4),           # layers
    st.integers(min_value=2, max_value=6),           # ops per layer
    st.integers(min_value=2, max_value=6),           # latency (states)
)

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _design(params):
    seed, layers, ops_per_layer, latency = params
    return random_layered_design(seed=seed, layers=layers,
                                 ops_per_layer=ops_per_layer, latency=latency,
                                 clock_period=2000.0)


def _fastest(design):
    return {op.name: (_LIBRARY.fastest_variant(op) if op.is_synthesizable else None)
            for op in design.dfg.operations if op.kind is not OpKind.CONST}


def _delays(design):
    return {name: _LIBRARY.operation_delay(design.dfg.op(name), variant)
            for name, variant in _fastest(design).items()}


_segment_op = st.tuples(st.sampled_from(["add", "sub", "mul", "and"]),
                        st.integers(min_value=0, max_value=30),
                        st.integers(min_value=0, max_value=30))
_segment_ops = st.lists(_segment_op, max_size=3)
_branchy_segments = st.lists(
    st.one_of(st.tuples(st.just("linear"), _segment_ops),
              st.tuples(st.just("diamond"), _segment_ops, _segment_ops,
                        _segment_ops, _segment_ops)),
    min_size=1, max_size=4,
).filter(lambda segments: any(kind == "diamond" for kind, *_ in segments))

_span_designs = st.one_of(
    _design_params.map(_design),
    st.builds(lambda segments, tail: segmented_design(
        segments, inputs=(8, 16), outputs=2, tail_states=tail),
        _branchy_segments, st.integers(min_value=0, max_value=2)),
)


def _scheduled_prefix(design, latency, floor, rng, strict):
    """Pins like a list scheduler that has reached ``floor``: in topological
    order, an operation whose non-constant predecessors are all pinned may
    be pinned to an edge of its current span before the floor, and must be
    when its whole span lies before the floor."""
    dfg = design.dfg
    limit = len(latency.forward_edge_names) if floor is None \
        else latency.edge_order(floor)
    pinned = {}
    for name in dfg.topological_order():
        if any(dfg.op(pred).kind is not OpKind.CONST and pred not in pinned
               for pred in dfg.predecessors(name)):
            continue
        info = OperationSpans(design, latency=latency, pinned=pinned,
                              strict_io_successors=strict).span(name)
        before = [edge for edge in info.edges
                  if latency.edge_order(edge) < limit]
        if before and (latency.edge_order(info.late) < limit
                       or rng.random() < 0.5):
            pinned[name] = rng.choice(before)
    return pinned


@given(_span_designs, st.integers(min_value=0, max_value=10 ** 6),
       st.booleans())
@_SETTINGS
def test_spans_always_contain_the_birth_reachable_interval(design, seed,
                                                           strict):
    """Definition 4, edge by edge, under a scheduler-like pinned prefix and
    floor, with and without ``strict_io_successors``."""
    latency = LatencyAnalysis(design.cfg)
    rng = random.Random(seed)
    forward = latency.forward_edge_names
    floor = rng.choice([None] + forward)
    pinned = _scheduled_prefix(design, latency, floor, rng, strict)
    spans = OperationSpans(design, latency=latency, pinned=pinned,
                           not_before=floor, strict_io_successors=strict)
    lowest = 0 if floor is None else latency.edge_order(floor)
    dfg = design.dfg
    for op in dfg.operations:
        info = spans.span(op.name)
        assert info.early in info.edges
        assert info.late in info.edges
        assert latency.reachable(info.early, info.late)
        if op.name in pinned:
            assert info.early == info.late == pinned[op.name]
            assert info.edges == (pinned[op.name],)
            continue
        birth = op.birth_edge
        assert all(latency.control_compatible(edge, birth)
                   for edge in info.edges)
        if op.is_fixed:
            assert info.edges == (birth,)
            continue
        assert latency.edge_order(info.early) >= lowest
        preds = [pred for pred in dfg.predecessors(op.name)
                 if dfg.op(pred).kind is not OpKind.CONST]
        candidates = [edge for edge in forward
                      if latency.control_compatible(edge, birth)]
        assert info.early == next(
            edge for edge in candidates
            if latency.edge_order(edge) >= lowest
            and all(latency.reachable(spans.early(pred), edge)
                    for pred in preds))
        if op.attrs.get("branch_condition"):
            assert info.late == birth
            continue

        def reaches_successors(edge):
            return all(
                latency.strictly_reachable(edge, spans.late(succ))
                if strict and dfg.op(succ).is_fixed
                else latency.reachable(edge, spans.late(succ))
                for succ in dfg.successors(op.name))

        lates = [edge for edge in candidates
                 if latency.reachable(info.early, edge)
                 and reaches_successors(edge)]
        assert info.late == (lates[-1] if lates else info.early)


@given(_design_params)
@_SETTINGS
def test_sequential_and_bellman_ford_slack_agree(params):
    design = _design(params)
    timed = build_timed_dfg(design)
    delays = _delays(design)
    fast = compute_sequential_slack(timed, delays, 2000.0)
    slow = compute_sequential_slack_bellman_ford(timed, delays, 2000.0)
    for name in fast.slack:
        assert slow.slack[name] == pytest.approx(fast.slack[name])


@given(_design_params, st.booleans(),
       st.sampled_from([900.0, 1500.0, 2000.0]))
@_SETTINGS
def test_bellman_ford_is_equivalent_to_topological_analysis(params, aligned,
                                                            clock_period):
    """The paper's Table 5 claim, as a property: the Bellman-Ford baseline
    and the linear topological propagation compute the *same* arrival,
    required and slack values on any seeded random design — aligned or not,
    single- or multi-sink (every operation gets a sink node, and layered
    designs have several terminal operations)."""
    design = _design(params)
    timed = build_timed_dfg(design)
    multi_sink = sum(1 for node in timed.operation_nodes
                     if all(is_sink_name(e.dst) for e in timed.successors(node)))
    assert multi_sink >= 1  # terminal operations exist; several for most draws
    delays = _delays(design)
    fast = compute_sequential_slack(timed, delays, clock_period,
                                    aligned=aligned)
    slow = compute_sequential_slack_bellman_ford(timed, delays, clock_period,
                                                 aligned=aligned)
    assert set(slow.slack) == set(fast.slack)
    for name in fast.slack:
        assert slow.arrival[name] == pytest.approx(fast.arrival[name], abs=1e-6)
        assert slow.required[name] == pytest.approx(fast.required[name], abs=1e-6)
        assert slow.slack[name] == pytest.approx(fast.slack[name], abs=1e-6)


@given(_design_params)
@_SETTINGS
def test_aligned_slack_is_never_larger_than_plain_slack(params):
    design = _design(params)
    timed = build_timed_dfg(design)
    delays = _delays(design)
    plain = compute_sequential_slack(timed, delays, 2000.0, aligned=False)
    aligned = compute_sequential_slack(timed, delays, 2000.0, aligned=True)
    for name in plain.slack:
        assert aligned.slack[name] <= plain.slack[name] + 1e-6


@given(_design_params)
@_SETTINGS
def test_critical_operations_share_the_worst_slack(params):
    design = _design(params)
    timed = build_timed_dfg(design)
    delays = _delays(design)
    result = compute_sequential_slack(timed, delays, 2000.0)
    worst = result.worst_slack()
    critical = result.critical_operations()
    assert critical
    for name in critical:
        assert result.slack[name] == pytest.approx(worst)


@given(_design_params)
@_SETTINGS
def test_budgeted_delays_respect_library_bounds(params):
    design = _design(params)
    result = budget_slack(design, _LIBRARY, clock_period=2000.0)
    for op in design.dfg.operations:
        if not op.is_synthesizable:
            continue
        low, high = _LIBRARY.delay_range_for_op(op)
        assert low - 1e-6 <= result.delay_of(op.name) <= high + 1e-6


def _assert_consistent(design, attempt, allocation, ii=None):
    """A pass either diagnoses its failure or returns a legal schedule:
    complete, valid, inside every span, within the allocation in every
    state (every II-congruent state group when ``ii`` is given), and with
    every data predecessor on an earlier step or chained before its
    consumer on the same edge."""
    if not attempt.success:
        # Tight minimal allocations may legitimately fail; the relaxation loop
        # handles that in the flows.  A failure must still carry a diagnosis.
        assert attempt.failure is not None
        assert attempt.failure.reason in (
            ("resource", "timing", "unreachable")
            + (("recurrence",) if ii else ()))
        return
    schedule = attempt.schedule
    assert schedule.is_complete()
    assert schedule.validate() == []
    spans = OperationSpans(design)
    usage = {}
    for item in schedule.items:
        assert item.edge in spans.span(item.op).edges
        key = resource_class_key(design.dfg.op(item.op), _LIBRARY)
        if key is not None:
            slot = (item.step % ii if ii else item.step, key)
            usage[slot] = usage.get(slot, 0) + 1
        for pred in design.dfg.predecessors(item.op):
            pred_item = schedule.get(pred)
            if pred_item is None:
                assert design.dfg.op(pred).kind is OpKind.CONST
                continue
            assert (pred_item.step < item.step or
                    (pred_item.edge == item.edge
                     and pred_item.finish <= item.start))
    for (_, key), count in usage.items():
        assert count <= allocation.limit(key)


@given(_design_params)
@_SETTINGS
def test_list_schedules_are_always_consistent(params):
    design = _design(params)
    variants = _fastest(design)
    allocation = minimal_allocation(design, _LIBRARY)
    attempt = try_list_schedule(design, _LIBRARY, 2000.0, variants, allocation)
    _assert_consistent(design, attempt, allocation)


@given(_design_params, st.integers(min_value=1, max_value=6))
@_SETTINGS
def test_modulo_schedules_are_always_consistent(params, ii):
    design = _design(params)
    ii = min(ii, params[3])
    variants = _fastest(design)
    allocation = minimal_allocation(design, _LIBRARY, pipeline_ii=ii)
    attempt = try_modulo_schedule(design, _LIBRARY, 2000.0, variants,
                                  allocation, pipeline_ii=ii)
    _assert_consistent(design, attempt, allocation, ii=ii)
