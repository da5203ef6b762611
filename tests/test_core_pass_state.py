"""The slack scheduler's per-pass re-budget state equals the object path.

After every scheduled CFG edge the slack-guided scheduler re-budgets the
pending operations on one state per schedule pass, kept on op indices
(:class:`repro.core.slack_scheduler._PassState`).  The reference is the
object path it replaced: ``OperationSpans(pinned=..., not_before=...)``,
then ``build_timed_dfg(design, spans=...)``, then ``budget_slack(graph=...)``
with the scheduled grades pinned, the locked grades pinned where not yet
scheduled, and the pending grades as warm start.

The prefixes are scheduler-like: each design is scheduled once, and its
schedule is replayed edge by edge into a fresh pass state, with a seeded
set of locked grades.  Now and then one operation is held back to the next
edge, as a resource shortage defers it; held past the last edge of its
span it leaves no legal edge, which is when a pass's re-budget raises
(the pass then fails on that operation).  On every edge the spans of the
pending operations (early, late, edges), the timed-edge weights, every
operation's slack, the budget's grades, feasibility and iteration counts,
the priorities and the grades written back must all be equal, float for
float; where the object path raises :class:`TimingError`, the pass state
must raise the same error.
"""

import random

import pytest

from repro.core.budgeting import budget_slack
from repro.core.opspan import OperationSpans
from repro.core.slack_scheduler import SlackScheduler, _PassState
from repro.core.timed_dfg import build_timed_dfg
from repro.errors import ReproError, TimingError
from repro.flows import idct_design_points
from repro.ir.operations import OpKind
from repro.sched.priorities import combined_priority
from repro.sched.schedule import Schedule
from repro.verify.scenarios import scenario_stream
from repro.workloads import IDCTPointFactory
from repro.workloads.generator import random_layered_design


def _replay(design, library, clock_period, rng):
    """Replay one real schedule into a pass state; returns ``(edges
    compared, edges on which both paths raised)``."""
    scheduler = SlackScheduler(design, library, clock_period)
    try:
        result = scheduler.run()
    except ReproError:
        return 0, 0
    latency = scheduler._latency
    locked = {op.name: rng.choice(library.class_for_op(op).variants)
              for op in design.dfg.operations
              if op.is_synthesizable and rng.random() < 0.25}
    scheduler._locked = locked
    variants = dict(result.initial_budget.variants)
    variants.update(locked)
    state = _PassState(scheduler, variants)

    prefix = Schedule(design, clock_period)
    pending = {op.name for op in design.dfg.operations
               if op.kind is not OpKind.CONST}
    edges = latency.forward_edge_names
    compared = raised = 0
    held = []
    for position, edge in enumerate(edges[:-1]):
        items = held + result.schedule.ops_on_edge(edge)
        held = []
        if len(items) > 1 and rng.random() < 0.1:
            held = [items.pop(rng.randrange(len(items)))]
        for item in items:
            prefix.assign(item.op, edge, position, item.start, item.finish,
                          item.variant)
            pending.discard(item.op)
        if not pending:
            break
        next_edge = edges[position + 1]
        warm = {name: variant for name, variant in variants.items()
                if variant is not None and name in pending}
        pinned = dict(prefix.variant_map())
        for name, variant in locked.items():
            pinned.setdefault(name, variant)
        try:
            spans = OperationSpans(design, latency=latency,
                                   pinned=prefix.as_sched_map(),
                                   not_before=next_edge)
            graph = build_timed_dfg(design, spans=spans,
                                    latency=latency).compact()
        except TimingError as error:
            with pytest.raises(TimingError) as mine:
                state.rebudget(edge, prefix, next_edge, frozenset(pending))
            assert str(mine.value) == str(error)
            raised += 1
            continue
        expected = budget_slack(design, library, clock_period, graph=graph,
                                initial_variants=warm, pinned_variants=pinned)
        pass_spans, priority = state.rebudget(edge, prefix, next_edge,
                                              frozenset(pending))

        for name in pending:
            assert pass_spans.span(name) == spans.span(name), (edge, name)
        assert state._graph.succ_weight == graph.succ_weight, edge
        assert state._graph.pred_weight == graph.pred_weight, edge

        budget = state._budget
        names = budget.template.names
        arrival = budget.evaluator.arrival
        required = budget.evaluator.required
        slack = {name: required[index] - arrival[index]
                 for index, name in enumerate(names)}
        assert list(slack.items()) == list(expected.timing.slack.items())
        assert dict(zip(names, budget.variants)) == expected.variants
        assert budget.feasible == expected.feasible
        assert budget.iterations == expected.iterations
        assert (budget.upgrades, budget.downgrades) == (expected.upgrades,
                                                        expected.downgrades)

        reference = combined_priority(expected.timing, spans)
        for name in pending:
            assert priority(name) == reference(name), (edge, name)
            assert variants[name] is expected.variants[name]
        compared += 1
    return compared, raised


def test_layered_designs_match_the_object_path(library):
    rng = random.Random(23)
    compared = 0
    for seed in range(12):
        design = random_layered_design(
            seed=seed, layers=2 + seed % 4, ops_per_layer=3 + seed % 4,
            latency=4 + seed % 5, clock_period=1500.0 + 300.0 * (seed % 4),
            width_choices=(8, 16, 32) if seed % 2 else None)
        compared += _replay(design, library, design.clock_period, rng)[0]
    assert compared >= 40


def test_branchy_scenarios_match_the_object_path(library):
    rng = random.Random(2024)
    compared = raised = branchy = 0
    for _, spec in scenario_stream(2024, 30):
        done, failed = _replay(spec.design(), library, spec.clock_period, rng)
        compared += done
        raised += failed
        if done and any(segment[0] == "diamond" for segment in spec.segments):
            branchy += 1
    assert branchy >= 5
    assert compared >= 60
    assert raised >= 1


@pytest.mark.parametrize("name", ["D4", "D8", "D13"])
def test_idct_points_match_the_object_path(name, library):
    point = {point.name: point
             for point in idct_design_points(clock_period=1500.0)}[name]
    design = IDCTPointFactory(rows=1)(point)
    compared, _ = _replay(design, library, point.clock_period,
                          random.Random(name))
    assert compared >= 5
