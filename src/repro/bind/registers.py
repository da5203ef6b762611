"""Register allocation for values that cross state boundaries.

A value (the result of an operation) needs a register when at least one of
its consumers executes in a later control step than its producer, or when it
is carried across loop iterations (backward data edges).  Registers are
shared between values with non-overlapping lifetimes using the classic
left-edge algorithm; a register's width is the maximum width of the values it
stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.design import Design
from repro.ir.operations import OpKind
from repro.sched.schedule import Schedule


@dataclass
class ValueLifetime:
    """Lifetime of one registered value in control-step indices."""

    value: str       # producing operation
    width: int
    birth: int       # step of the producer
    death: int       # last step in which a consumer reads the value
    loop_carried: bool = False


@dataclass
class RegisterFile:
    """One physical register and the values mapped onto it."""

    name: str
    width: int
    values: List[str] = field(default_factory=list)


@dataclass
class RegisterAllocation:
    """Result of register allocation."""

    registers: List[RegisterFile]
    value_to_register: Dict[str, str]
    lifetimes: Dict[str, ValueLifetime]

    def total_bits(self) -> int:
        return sum(register.width for register in self.registers)

    def num_registers(self) -> int:
        return len(self.registers)

    def describe(self) -> str:
        lines = [f"Registers: {len(self.registers)} ({self.total_bits()} bits)"]
        for register in self.registers:
            lines.append(f"  {register.name:<10} w{register.width:<3} "
                         f"<- {sorted(register.values)}")
        return "\n".join(lines)


def compute_lifetimes(design: Design, schedule: Schedule) -> Dict[str, ValueLifetime]:
    """Lifetimes of all values that must be registered."""
    dfg = design.dfg
    lifetimes: Dict[str, ValueLifetime] = {}
    for op in dfg.operations:
        if op.kind is OpKind.CONST:
            continue
        if not schedule.is_scheduled(op.name):
            continue
        birth = schedule.step_of(op.name)
        death = birth
        needs_register = False
        loop_carried = False
        for edge in dfg.out_edges(op.name, forward_only=False):
            if edge.backward:
                needs_register = True
                loop_carried = True
                continue
            if not schedule.is_scheduled(edge.dst):
                continue
            consumer_step = schedule.step_of(edge.dst)
            if consumer_step > birth:
                needs_register = True
                death = max(death, consumer_step)
        # Results written to ports inside the same step never need storage.
        if needs_register:
            lifetimes[op.name] = ValueLifetime(
                value=op.name,
                width=op.width,
                birth=birth,
                death=death,
                loop_carried=loop_carried,
            )
    return lifetimes


def allocate_registers(design: Design, schedule: Schedule,
                       lifetimes: Optional[Dict[str, ValueLifetime]] = None,
                       ) -> RegisterAllocation:
    """Left-edge register allocation.

    Loop-carried values are alive for the whole iteration and therefore never
    share a register with anything whose lifetime overlaps the iteration
    (conservatively: with anything at all).
    """
    lifetimes = lifetimes if lifetimes is not None else compute_lifetimes(design, schedule)
    max_step = max((item.step for item in schedule.items), default=0)

    intervals: List[Tuple[int, int, ValueLifetime]] = []
    for lifetime in lifetimes.values():
        if lifetime.loop_carried:
            start, end = 0, max_step
        else:
            start, end = lifetime.birth, lifetime.death
        intervals.append((start, end, lifetime))
    intervals.sort(key=lambda entry: (entry[0], entry[1], entry[2].value))

    registers: List[RegisterFile] = []
    register_end: Dict[str, int] = {}
    value_to_register: Dict[str, str] = {}
    for start, end, lifetime in intervals:
        assigned = None
        for register in registers:
            if register_end[register.name] < start and register.width >= lifetime.width:
                assigned = register
                break
        if assigned is None:
            assigned = RegisterFile(name=f"r{len(registers)}", width=lifetime.width)
            registers.append(assigned)
            register_end[assigned.name] = -1
        assigned.values.append(lifetime.value)
        assigned.width = max(assigned.width, lifetime.width)
        register_end[assigned.name] = max(register_end[assigned.name], end)
        value_to_register[lifetime.value] = assigned.name

    return RegisterAllocation(
        registers=registers,
        value_to_register=value_to_register,
        lifetimes=lifetimes,
    )
