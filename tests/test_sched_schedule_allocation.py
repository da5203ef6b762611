"""Tests for the Schedule container and resource allocation."""

import pytest

from repro.errors import SchedulingError
from repro.core.opspan import OperationSpans
from repro.sched.allocation import Allocation, minimal_allocation, resource_class_key
from repro.sched.schedule import Schedule


def test_assign_and_query(interpolation):
    schedule = Schedule(interpolation, 1100.0)
    schedule.assign("mul_x_0", "e1", 0, 0.0, 430.0)
    assert schedule.is_scheduled("mul_x_0")
    assert schedule.edge_of("mul_x_0") == "e1"
    assert schedule.step_of("mul_x_0") == 0
    assert schedule.item("mul_x_0").delay == pytest.approx(430.0)
    assert not schedule.is_complete()
    assert schedule.num_scheduled() == 1
    assert [o.op for o in schedule.ops_on_edge("e1")] == ["mul_x_0"]


def test_double_assignment_rejected(interpolation):
    schedule = Schedule(interpolation, 1100.0)
    schedule.assign("mul_x_0", "e1", 0, 0.0, 430.0)
    with pytest.raises(SchedulingError):
        schedule.assign("mul_x_0", "e2", 1, 0.0, 430.0)


def test_unknown_names_rejected(interpolation):
    schedule = Schedule(interpolation, 1100.0)
    with pytest.raises(SchedulingError):
        schedule.assign("nope", "e1", 0, 0.0, 1.0)
    with pytest.raises(SchedulingError):
        schedule.assign("mul_x_0", "nope", 0, 0.0, 1.0)
    with pytest.raises(SchedulingError):
        schedule.item("mul_x_0")


def test_validate_detects_dependency_violation(interpolation):
    schedule = Schedule(interpolation, 1100.0)
    # mul_x_1 depends on mul_x_0; scheduling it earlier must be reported.
    schedule.assign("mul_x_0", "e2", 1, 0.0, 430.0)
    schedule.assign("mul_x_1", "e1", 0, 0.0, 430.0)
    problems = schedule.validate()
    assert any("scheduled before" in p for p in problems)


def test_validate_detects_chaining_violation(interpolation):
    schedule = Schedule(interpolation, 1100.0)
    schedule.assign("mul_x_0", "e1", 0, 0.0, 430.0)
    schedule.assign("mul_x_1", "e1", 0, 100.0, 530.0)  # starts before producer ends
    problems = schedule.validate()
    assert any("finishes at" in p or "before" in p for p in problems)


def test_validate_detects_clock_overflow(interpolation):
    schedule = Schedule(interpolation, 1100.0)
    schedule.assign("mul_x_0", "e1", 0, 900.0, 1400.0)
    problems = schedule.validate()
    assert any("beyond the clock period" in p for p in problems)


def test_describe_and_utilisation(interpolation):
    schedule = Schedule(interpolation, 1100.0)
    schedule.assign("mul_x_0", "e1", 0, 0.0, 430.0)
    text = schedule.describe()
    assert "mul_x_0" in text and "step 0" in text
    assert schedule.state_utilisation()["e1"] == pytest.approx(430.0)
    assert schedule.latency_steps() == 1


def test_resource_class_key(interpolation, library):
    mul = interpolation.dfg.op("mul_x_0")
    write = interpolation.dfg.op("write_x")
    assert resource_class_key(mul, library) == ("mul", 8)
    assert resource_class_key(write, library) is None


def test_minimal_allocation_counts(interpolation, library):
    allocation = minimal_allocation(interpolation, library)
    # 7 multiplications over 3 usable states -> at least 3 multipliers;
    # 4 additions over 3 states -> at least 2 adders.
    assert allocation.limits[("mul", 8)] == 3
    assert allocation.limits[("add", 16)] == 2


def test_minimal_allocation_pipelined_uses_ii_slots(interpolation, library):
    spans = OperationSpans(interpolation)
    allocation = minimal_allocation(interpolation, library, spans=spans, pipeline_ii=1)
    # With II=1 every operation of a class needs its own instance.
    assert allocation.limits[("mul", 8)] == 7
    assert allocation.limits[("add", 16)] == 4


def test_allocation_helpers():
    allocation = Allocation()
    assert allocation.limit(None) > 10 ** 6
    assert allocation.limit(("mul", 8)) == 0
    allocation.add(("mul", 8))
    allocation.add(("mul", 8), 2)
    assert allocation.limit(("mul", 8)) == 3
    allocation.add(("add", 16), 2)
    assert allocation.limit(("add", 16)) == 2
    clone = allocation.copy()
    clone.add(("mul", 8))
    assert allocation.limit(("mul", 8)) == 3
    assert "mul/8x3" in allocation.describe()
