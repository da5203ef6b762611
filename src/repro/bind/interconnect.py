"""Interconnect (multiplexer) estimation.

Sharing functional units and registers requires steering logic: every input
port of a shared unit needs a multiplexer selecting among the distinct
sources that feed it across the operations bound to that unit, and every
shared register needs a multiplexer at its data input.  The estimate below
counts those multiplexers and converts them to area and delay using the
technology parameters, which is how the "our actual implementation estimates
them" remark of the paper's Section II is realised here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.design import Design
from repro.ir.operations import OpKind
from repro.lib.library import Library
from repro.bind.binding import Binding
from repro.bind.registers import RegisterAllocation
from repro.sched.schedule import Schedule


@dataclass
class MuxRecord:
    """One estimated multiplexer."""

    location: str     # e.g. "mul8_u0.port0" or "r3.d"
    inputs: int
    width: int
    area: float
    delay: float


@dataclass
class InterconnectEstimate:
    """Aggregate mux area/delay estimate."""

    muxes: List[MuxRecord] = field(default_factory=list)
    instance_input_delay: Dict[str, float] = field(default_factory=dict)

    @property
    def total_area(self) -> float:
        # Left to right, as Binding.total_fu_area (not sum(): Python 3.12).
        return reduce(add, (mux.area for mux in self.muxes), 0)

    def delay_before(self, instance_name: str) -> float:
        """Worst mux delay in front of a functional-unit instance's inputs."""
        return self.instance_input_delay.get(instance_name, 0.0)

    def num_muxes(self) -> int:
        return len(self.muxes)


def estimate_interconnect(
    design: Design,
    library: Library,
    schedule: Schedule,
    binding: Binding,
    registers: Optional[RegisterAllocation] = None,
) -> InterconnectEstimate:
    """Estimate the multiplexers implied by ``binding`` and ``registers``."""
    technology = library.technology
    dfg = design.dfg
    estimate = InterconnectEstimate()

    # ---- functional-unit input ports ---------------------------------------------
    for instance in binding.instances:
        port_sources: Dict[int, Set[str]] = {}
        port_width: Dict[int, int] = {}
        for op_name in instance.ops:
            op = dfg.op(op_name)
            for edge in dfg.in_edges(op_name, forward_only=False):
                source_op = dfg.op(edge.src)
                if source_op.kind is OpKind.CONST:
                    continue  # constants are folded into the unit's logic
                port_sources.setdefault(edge.dst_port, set()).add(edge.src)
                width = (op.operand_widths[edge.dst_port]
                         if edge.dst_port < len(op.operand_widths) else op.width)
                port_width[edge.dst_port] = max(port_width.get(edge.dst_port, 0), width)
        worst_delay = 0.0
        for port, sources in sorted(port_sources.items()):
            count = len(sources)
            if count <= 1:
                continue
            width = port_width.get(port, instance.class_key[1])
            area = technology.mux_area(count, width)
            delay = technology.mux_delay(count)
            estimate.muxes.append(MuxRecord(
                location=f"{instance.name}.port{port}",
                inputs=count, width=width, area=area, delay=delay,
            ))
            worst_delay = max(worst_delay, delay)
        estimate.instance_input_delay[instance.name] = worst_delay

    # ---- register inputs -------------------------------------------------------------
    if registers is not None:
        for register in registers.registers:
            count = len(register.values)
            if count <= 1:
                continue
            area = technology.mux_area(count, register.width)
            delay = technology.mux_delay(count)
            estimate.muxes.append(MuxRecord(
                location=f"{register.name}.d",
                inputs=count, width=register.width, area=area, delay=delay,
            ))
    return estimate
