"""Tests for the list scheduler, the priorities and the relaxation loop."""

from collections import Counter

import pytest

from repro.errors import InfeasibleDesignError
from repro.core.opspan import OperationSpans
from repro.flows import conventional_flow, idct_design_points, slack_based_flow
from repro.ir.operations import OpKind
from repro.obs.metrics import counter
from repro.sched.allocation import Allocation, minimal_allocation, resource_class_key
from repro.sched.list_scheduler import (
    SchedulingAttempt,
    SchedulingFailure,
    try_list_schedule,
)
from repro.sched.priorities import combined_priority, mobility_priority
from repro.sched.relaxation import schedule_with_relaxation
from repro.verify.scenarios import scenario_stream
from repro.workloads import IDCTPointFactory


def fastest_variants(design, library):
    return {op.name: (library.fastest_variant(op) if op.is_synthesizable else None)
            for op in design.dfg.operations if op.kind is not OpKind.CONST}


def test_list_scheduler_respects_resource_limits(interpolation, library):
    variants = fastest_variants(interpolation, library)
    allocation = minimal_allocation(interpolation, library)
    attempt = try_list_schedule(interpolation, library, 1100.0, variants, allocation)
    assert attempt.success
    schedule = attempt.schedule
    assert schedule.is_complete()
    assert schedule.validate() == []
    for edge in ("e1", "e2", "e3"):
        muls = [item for item in schedule.ops_on_edge(edge)
                if interpolation.dfg.op(item.op).kind is OpKind.MUL]
        assert len(muls) <= allocation.limits[("mul", 8)]


def test_list_scheduler_reports_resource_failure(interpolation, library):
    variants = fastest_variants(interpolation, library)
    allocation = Allocation({("mul", 8): 1, ("add", 16): 1})
    attempt = try_list_schedule(interpolation, library, 1100.0, variants, allocation)
    assert not attempt.success
    assert attempt.failure.reason == "resource"
    assert attempt.failure.class_key in {("mul", 8), ("add", 16)}


def test_list_scheduler_reports_timing_failure(interpolation, library):
    slowest = {op.name: (library.slowest_variant(op) if op.is_synthesizable else None)
               for op in interpolation.dfg.operations if op.kind is not OpKind.CONST}
    allocation = minimal_allocation(interpolation, library)
    attempt = try_list_schedule(interpolation, library, 1100.0, slowest,
                                allocation)
    # The on-the-fly upgrades run, but cannot save this pass.
    assert not attempt.success
    assert attempt.failure.reason == "timing"


def test_upgrade_on_last_chance_repairs_timing(interpolation, library):
    # At 2,000 ps the slowest grades miss only on add_sum_3's last edge: the
    # pass raises that one grade just enough to fit instead of failing.
    slowest = {op.name: (library.slowest_variant(op) if op.is_synthesizable else None)
               for op in interpolation.dfg.operations if op.kind is not OpKind.CONST}
    allocation = minimal_allocation(interpolation, library)
    variant_map = dict(slowest)
    attempt = try_list_schedule(interpolation, library, 2000.0, variant_map,
                                allocation)
    assert attempt.success
    schedule = attempt.schedule
    assert schedule.is_complete()
    assert schedule.validate() == []
    upgraded = [name for name in variant_map
                if variant_map[name] is not slowest[name]]
    assert upgraded == ["add_sum_3"]
    assert variant_map["add_sum_3"].delay < slowest["add_sum_3"].delay
    assert schedule.variant_of("add_sum_3") is variant_map["add_sum_3"]


def test_relaxation_reaches_a_feasible_schedule(library):
    # IDCT rows=1 D8 at 1500 ps: the minimal allocation is too small, so the
    # loop adds add/sub instances over five passes.
    point = {p.name: p for p in idct_design_points(clock_period=1500.0)}["D8"]
    design = IDCTPointFactory(rows=1)(point)
    variants = fastest_variants(design, library)
    schedule, allocation, final_variants, log = schedule_with_relaxation(
        design, library, 1500.0, variants)
    assert schedule.is_complete()
    assert schedule.validate() == []
    minimal = minimal_allocation(design, library)
    for key in (("add", 16), ("sub", 16)):
        assert allocation.limits[key] > minimal.limits[key]
    assert log.attempts == 5
    assert set(log.resources_added) == {("add", 16), ("sub", 16)}
    assert not log.upgrades


def test_relaxation_raises_for_impossible_clock(interpolation, library):
    variants = fastest_variants(interpolation, library)
    with pytest.raises(InfeasibleDesignError):
        schedule_with_relaxation(interpolation, library, 300.0, variants)


def _failing_pass(reason):
    """A modulo-engine stand-in whose every pass fails the same way."""
    failure = SchedulingFailure(op="mul_x_3", edge="e3", reason=reason,
                                class_key=("mul", 8), detail="stub")

    def engine(*args, **kwargs):
        return SchedulingAttempt(success=False, failure=failure)

    return engine


def test_ii_limit_blames_the_recurrences_after_a_recurrence_failure(
        interpolation, library):
    variants = fastest_variants(interpolation, library)
    with pytest.raises(InfeasibleDesignError) as info:
        schedule_with_relaxation(interpolation, library, 1100.0, variants,
                                 scheduler=_failing_pass("recurrence"))
    assert str(info.value).startswith(
        "recurrences of design 'interpolation_u4' do not fit even at II=3 "
        "(no iteration overlap left): cannot schedule 'mul_x_3'")


def test_ii_limit_names_a_repeated_timing_failure(interpolation, library):
    variants = fastest_variants(interpolation, library)
    with pytest.raises(InfeasibleDesignError) as info:
        schedule_with_relaxation(interpolation, library, 1100.0, variants,
                                 scheduler=_failing_pass("timing"))
    message = str(info.value)
    assert message.startswith(
        "design 'interpolation_u4' stalls on a repeated timing failure even "
        "at II=3 (no iteration overlap left): cannot schedule 'mul_x_3'")
    assert "recurrences" not in message


def _pass_bound(design, library):
    """The block relaxation loop's bound on its passes (its docstring):
    1 + Σ (grades − 1) over the operations + Σ (ops − minimal instances)
    over the classes."""
    synthesizable = [op for op in design.dfg.operations if op.is_synthesizable]
    minimal = minimal_allocation(design, library, spans=OperationSpans(design))
    ops = Counter(resource_class_key(op, library) for op in synthesizable)
    grade_steps = sum(library.class_for_op(op).num_grades - 1
                      for op in synthesizable)
    return 1 + grade_steps + sum(count - minimal.limit(key)
                                 for key, count in ops.items())


def test_block_relaxation_stays_within_its_stated_bound(interpolation,
                                                        library):
    runs = [(spec.design(), spec.clock_period, spec.margin_fraction)
            for _, spec in scenario_stream(0, 60)
            if spec.pipeline_ii is None and not spec.carried]
    runs += [(interpolation, clock, 0.05) for clock in (1100.0, 800.0)]
    attempts = counter("relaxation.attempts")
    errors = []
    for design, clock_period, margin in runs:
        bound = _pass_bound(design, library)
        for flow, kwargs in ((conventional_flow, {}),
                             (slack_based_flow, {"margin_fraction": margin})):
            before = attempts.value
            try:
                result = flow(design, library, clock_period=clock_period,
                              **kwargs)
            except InfeasibleDesignError as exc:
                errors.append(str(exc))
                assert attempts.value - before <= bound
            else:
                assert result.details["relaxation_attempts"] <= bound
    assert len(runs) > 50 and errors
    # Each names the bound it hit: one instance per operation, or the
    # fastest grade.
    for message in errors:
        assert "at its bound of" in message or "fastest grade" in message, \
            message


@pytest.mark.parametrize("pipeline_ii", [None, 1])
def test_an_overconstrained_block_design_fails_fast(interpolation, library,
                                                    pipeline_ii):
    # Every pass at 800 ps fails on a chain of two multiplications: the
    # loop adds multipliers up to one per operation, then stops.
    attempts = counter("relaxation.attempts")
    for flow in (conventional_flow, slack_based_flow):
        before = attempts.value
        with pytest.raises(InfeasibleDesignError) as info:
            flow(interpolation, library, clock_period=800.0,
                 pipeline_ii=pipeline_ii)
        assert attempts.value - before <= 5
        assert str(info.value).startswith(
            "design 'interpolation_u4' is overconstrained with mul/8 at its "
            "bound of 7 instances (one per operation): cannot schedule "
            "'mul_x_3' on edge 'e3' (timing)")


def test_modulo_relaxation_raises_the_ii_at_the_class_bound(interpolation,
                                                            library):
    # At II=1 the minimal allocation is one multiplier per multiplication
    # already, so the failed first pass raises the II at once.
    result = conventional_flow(interpolation, library, clock_period=1500.0,
                               pipeline_ii=1, scheduling="pipeline")
    assert result.details["relaxation_attempts"] == 2
    assert result.details["resources_added"] == []
    assert result.details["initiation_interval"] == 2


def test_pipelined_scheduling_uses_congruent_slots(small_idct, library):
    variants = fastest_variants(small_idct, library)
    spans = OperationSpans(small_idct)
    allocation = minimal_allocation(small_idct, library, spans=spans, pipeline_ii=4)
    attempt = try_list_schedule(small_idct, library, 1500.0, variants, allocation,
                                spans=spans, pipeline_ii=4)
    if not attempt.success:
        pytest.skip("minimal allocation insufficient for this II; covered by flows")
    schedule = attempt.schedule
    usage = {}
    for item in schedule.items:
        op = small_idct.dfg.op(item.op)
        key = resource_class_key(op, library)
        if key is None:
            continue
        slot = (item.step % 4, key)
        usage[slot] = usage.get(slot, 0) + 1
    for (slot, key), count in usage.items():
        assert count <= allocation.limits[key]


def test_priorities_order_ready_operations(interpolation, library):
    spans = OperationSpans(interpolation)
    mobility = mobility_priority(spans)
    assert mobility("write_x") < mobility("mul_x_0")
    from repro.core.sequential_slack import compute_sequential_slack
    from repro.core.timed_dfg import build_timed_dfg
    timed = build_timed_dfg(interpolation, spans=spans)
    delays = {op.name: library.operation_delay(op) for op in
              interpolation.dfg.operations if op.kind is not OpKind.CONST}
    timing = compute_sequential_slack(timed, delays, 1100.0)
    combined = combined_priority(timing, spans)
    most_critical = min(timing.slack, key=timing.slack.get)
    assert combined(most_critical)[0] <= combined("write_x")[0]
    assert combined(most_critical)[0] == timing.slack[most_critical]
