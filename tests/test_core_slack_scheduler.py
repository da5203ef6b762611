"""Tests for the slack-guided scheduler (paper Fig. 8)."""

import pytest

from repro.core.slack_scheduler import SlackScheduler
from repro.ir.operations import OpKind


@pytest.fixture(scope="module")
def interpolation_result(interpolation, library):
    return SlackScheduler(interpolation, library, 1100.0).run()


def test_schedule_is_complete_and_valid(interpolation, interpolation_result):
    schedule = interpolation_result.schedule
    assert schedule.is_complete()
    assert schedule.validate() == []
    assert schedule.latency_steps() <= 3


def test_every_synthesizable_operation_has_a_variant(interpolation,
                                                     interpolation_result):
    for op in interpolation.dfg.operations:
        if op.is_synthesizable:
            variant = interpolation_result.variant_of(op.name)
            assert variant is not None
            assert variant.kind is op.kind


def test_budgeting_slows_noncritical_operations(interpolation, library,
                                                interpolation_result):
    """The whole point: not every operation should be on the fastest grade."""
    grades = [interpolation_result.variant_of(op.name).grade
              for op in interpolation.dfg.operations if op.is_synthesizable]
    assert any(grade > 0 for grade in grades)
    # The selected multipliers must be cheaper in total than all-fastest.
    mul_area = sum(interpolation_result.variant_of(op.name).area
                   for op in interpolation.dfg.operations
                   if op.kind is OpKind.MUL)
    fastest_area = sum(library.fastest_variant(op).area
                       for op in interpolation.dfg.operations
                       if op.kind is OpKind.MUL)
    assert mul_area < fastest_area


def test_rebudgeting_happens_and_is_recorded(interpolation_result):
    assert interpolation_result.rebudget_count >= 1
    assert interpolation_result.initial_budget.feasible


def test_resizer_with_control_flow_schedules(resizer_full, library):
    result = SlackScheduler(resizer_full, library, 6000.0).run()
    schedule = result.schedule
    assert schedule.is_complete()
    assert schedule.validate() == []
    # Fixed I/O operations stay on their protocol edges.
    assert schedule.edge_of("rd_a") == "e1"
    assert schedule.edge_of("rd_b") == "e5"
    assert schedule.edge_of("wr") == "e7"
    # The branch condition is resolved before the fork.
    assert schedule.edge_of("cmp") == "e1"


def test_allocation_respects_schedule(interpolation, library, interpolation_result):
    schedule = interpolation_result.schedule
    limits = interpolation_result.allocation.limits
    per_edge = {}
    for item in schedule.items:
        op = interpolation.dfg.op(item.op)
        if op.kind is not OpKind.MUL:
            continue
        per_edge[item.edge] = per_edge.get(item.edge, 0) + 1
    assert per_edge
    for count in per_edge.values():
        assert count <= limits[("mul", 8)]
