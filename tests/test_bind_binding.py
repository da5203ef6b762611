"""Tests for functional-unit binding, register allocation and interconnect."""

import pytest

from repro.bind.binding import Binding, FUInstance, bind_operations
from repro.bind.interconnect import (InterconnectEstimate, MuxRecord,
                                     estimate_interconnect)
from repro.bind.registers import allocate_registers, compute_lifetimes
from repro.core.slack_scheduler import SlackScheduler
from repro.ir.operations import OpKind
from repro.lib.resource import ResourceVariant
from repro.sched.allocation import minimal_allocation, resource_class_key
from repro.sched.list_scheduler import try_list_schedule


@pytest.fixture(scope="module")
def scheduled(interpolation, library):
    variants = {op.name: (library.fastest_variant(op) if op.is_synthesizable else None)
                for op in interpolation.dfg.operations if op.kind is not OpKind.CONST}
    allocation = minimal_allocation(interpolation, library)
    attempt = try_list_schedule(interpolation, library, 1100.0, variants,
                                allocation)
    assert attempt.success
    return attempt.schedule


def test_every_synthesizable_op_is_bound(interpolation, library, scheduled):
    binding = bind_operations(interpolation, library, scheduled)
    expected = {op.name for op in interpolation.dfg.operations if op.is_synthesizable}
    assert set(binding.op_to_instance) == expected
    assert binding.total_fu_area() > 0


def test_no_instance_hosts_two_ops_in_the_same_step(interpolation, library, scheduled):
    binding = bind_operations(interpolation, library, scheduled)
    for instance in binding.instances:
        steps = [scheduled.step_of(op) for op in instance.ops]
        assert len(steps) == len(set(steps))


def test_instance_is_fast_enough_for_all_its_ops(interpolation, library, scheduled):
    binding = bind_operations(interpolation, library, scheduled)
    for instance in binding.instances:
        for op in instance.ops:
            scheduled_variant = scheduled.variant_of(op)
            assert instance.variant.delay <= scheduled_variant.delay + 1e-9


def test_instances_only_host_their_own_class(interpolation, library, scheduled):
    binding = bind_operations(interpolation, library, scheduled)
    for instance in binding.instances:
        for op in instance.ops:
            key = resource_class_key(interpolation.dfg.op(op), library)
            assert key == instance.class_key


def test_grade_aware_binding_separates_speed_grades(interpolation, library):
    """The slack-based schedule mixes grades; binding should not collapse all
    multiplications onto fastest instances."""
    result = SlackScheduler(interpolation, library, 1100.0).run()
    binding = bind_operations(interpolation, library, result.schedule)
    mul_instances = binding.instances_of_class(("mul", 8))
    assert mul_instances
    assert any(instance.variant.grade > 0 for instance in mul_instances)


def test_pipelined_binding_uses_modulo_conflicts(small_idct, library):
    from repro.flows import conventional_flow
    flow = conventional_flow(small_idct, library, clock_period=1500.0, pipeline_ii=4)
    binding = flow.datapath.binding
    for instance in binding.instances:
        slots = [flow.schedule.step_of(op) % 4 for op in instance.ops]
        assert len(slots) == len(set(slots))


def test_lifetimes_and_register_allocation(interpolation, library, scheduled):
    lifetimes = compute_lifetimes(interpolation, scheduled)
    # Values consumed in the same step as produced need no register.
    for lifetime in lifetimes.values():
        assert lifetime.loop_carried or lifetime.death > lifetime.birth
    allocation = allocate_registers(interpolation, scheduled, lifetimes)
    assert allocation.num_registers() >= 1
    assert allocation.total_bits() >= max((l.width for l in lifetimes.values()),
                                          default=0)
    # No register holds two values with overlapping lifetimes.
    for register in allocation.registers:
        intervals = []
        for value in register.values:
            lifetime = lifetimes[value]
            if lifetime.loop_carried:
                start, end = 0, scheduled.latency_steps() - 1
            else:
                start, end = lifetime.birth, lifetime.death
            intervals.append((start, end))
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 < s2


def test_loop_carried_values_are_registered(interpolation, library, scheduled):
    lifetimes = compute_lifetimes(interpolation, scheduled)
    carried_sources = {e.src for e in interpolation.dfg.backward_edges}
    for name in carried_sources:
        assert name in lifetimes
        assert lifetimes[name].loop_carried


def test_interconnect_counts_shared_ports(interpolation, library, scheduled):
    binding = bind_operations(interpolation, library, scheduled)
    registers = allocate_registers(interpolation, scheduled)
    estimate = estimate_interconnect(interpolation, library, scheduled, binding,
                                     registers)
    shared = [i for i in binding.instances if len(i.ops) > 1]
    if shared:
        assert estimate.num_muxes() > 0
        assert estimate.total_area > 0
    for instance in binding.instances:
        assert estimate.delay_before(instance.name) >= 0.0


def test_area_totals_add_left_to_right():
    """Both totals add their areas in order, as ``sum()`` did before
    Python 3.12; 3.12's compensated ``sum()`` of ten 0.1 areas gives 1.0,
    and the golden Table-4 areas are the plain sums."""
    variant = ResourceVariant("add8_g0", OpKind.ADD, 8, delay=100.0, area=0.1)
    binding = Binding(instances=[FUInstance(f"add8_u{index}", ("add", 8),
                                            variant) for index in range(10)],
                      op_to_instance={})
    estimate = InterconnectEstimate(muxes=[
        MuxRecord(f"r{index}.d", inputs=2, width=8, area=0.1, delay=0.0)
        for index in range(10)])
    assert binding.total_fu_area() == 0.9999999999999999
    assert estimate.total_area == 0.9999999999999999
