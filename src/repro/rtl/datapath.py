"""Datapath assembly: the structural result of HLS.

A :class:`Datapath` bundles everything needed to evaluate an implementation:
the schedule (FSM behaviour), the functional-unit binding, the register
allocation and the interconnect estimate.  It is the object the area, timing
and power models — and the Verilog emitter — operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import BindingError
from repro.ir.design import Design
from repro.lib.library import Library
from repro.bind.binding import Binding, bind_operations
from repro.bind.interconnect import InterconnectEstimate, estimate_interconnect
from repro.bind.registers import RegisterAllocation, allocate_registers
from repro.sched.schedule import Schedule


@dataclass
class Datapath:
    """A complete datapath + controller implementation of a design."""

    design: Design
    library: Library
    schedule: Schedule
    binding: Binding
    registers: RegisterAllocation
    interconnect: InterconnectEstimate
    clock_period: float
    #: Lazily built instance -> states index (see :meth:`instance_edges`).
    _instance_edges: Optional[Dict[str, frozenset]] = field(
        default=None, repr=False, compare=False)

    @property
    def num_states(self) -> int:
        """Number of FSM states (control steps actually used)."""
        return max(self.schedule.latency_steps(), 1)

    @property
    def num_instances(self) -> int:
        return len(self.binding.instances)

    @property
    def num_registers(self) -> int:
        return self.registers.num_registers()

    def instance_edges(self, instance_name: str) -> frozenset:
        """The CFG edges (states) a functional-unit instance participates in.

        The index is computed once from the binding and the schedule and then
        cached: which operations an instance implements and which edges those
        operations execute on are both fixed after datapath construction.
        Variant (speed-grade) changes — the only mutation area recovery
        performs — never move an operation, so they do not invalidate the
        index.  Instances whose operations are unscheduled (or that carry no
        operations at all) map to an empty set.
        """
        if self._instance_edges is None:
            index: Dict[str, frozenset] = {}
            for instance in self.binding.instances:
                index[instance.name] = frozenset(
                    self.schedule.edge_of(op) for op in instance.ops
                    if self.schedule.is_scheduled(op)
                )
            self._instance_edges = index
        try:
            return self._instance_edges[instance_name]
        except KeyError:
            raise BindingError(
                f"unknown functional-unit instance {instance_name!r}") from None

    def summary(self) -> Dict[str, object]:
        return {
            "design": self.design.name,
            "states": self.num_states,
            "fu_instances": self.num_instances,
            "registers": self.num_registers,
            "register_bits": self.registers.total_bits(),
            "muxes": self.interconnect.num_muxes(),
            "clock_period": self.clock_period,
        }


def build_datapath(
    design: Design,
    library: Library,
    schedule: Schedule,
    pipeline_ii: Optional[int] = None,
) -> Datapath:
    """Bind, allocate registers, estimate interconnect and assemble a datapath."""
    binding = bind_operations(design, library, schedule, pipeline_ii=pipeline_ii)
    registers = allocate_registers(design, schedule)
    interconnect = estimate_interconnect(design, library, schedule, binding, registers)
    return Datapath(
        design=design,
        library=library,
        schedule=schedule,
        binding=binding,
        registers=registers,
        interconnect=interconnect,
        clock_period=schedule.clock_period,
    )
