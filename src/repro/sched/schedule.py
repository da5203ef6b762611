"""Schedule data structure: the ``sched`` mapping plus chaining offsets.

A :class:`Schedule` records, for every operation, the CFG edge it executes on
(the paper's ``sched: O -> E`` mapping), the topological index of that edge
(its control step for reporting), the start/finish offsets inside the state
(combinational chaining position) and the selected library variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SchedulingError
from repro.ir.design import Design
from repro.lib.resource import ResourceVariant

_EPS = 1e-6


@dataclass
class ScheduledOp:
    """Placement of a single operation."""

    op: str
    edge: str
    step: int
    start: float
    finish: float
    variant: Optional[ResourceVariant] = None

    @property
    def delay(self) -> float:
        return self.finish - self.start


class Schedule:
    """A (possibly partial) schedule of a design."""

    def __init__(self, design: Design, clock_period: float):
        if clock_period <= 0:
            raise SchedulingError("clock period must be positive")
        self.design = design
        self.clock_period = clock_period
        #: Initiation interval the schedule was produced at (set by the
        #: modulo scheduler; None for block-bounded schedules).
        self.pipeline_ii: Optional[int] = None
        self._items: Dict[str, ScheduledOp] = {}
        self._by_edge: Dict[str, List[str]] = {}

    # -- construction -----------------------------------------------------------

    def assign(self, op: str, edge: str, step: int, start: float, finish: float,
               variant: Optional[ResourceVariant] = None) -> ScheduledOp:
        if op in self._items:
            raise SchedulingError(f"operation {op!r} is already scheduled")
        if not self.design.dfg.has_op(op):
            raise SchedulingError(f"unknown operation {op!r}")
        if not self.design.cfg.has_edge(edge):
            raise SchedulingError(f"unknown CFG edge {edge!r}")
        if finish < start:
            raise SchedulingError(f"operation {op!r} finishes before it starts")
        item = ScheduledOp(op=op, edge=edge, step=step, start=start, finish=finish,
                           variant=variant)
        self._items[op] = item
        self._by_edge.setdefault(edge, []).append(op)
        return item

    # -- queries -------------------------------------------------------------------

    def is_scheduled(self, op: str) -> bool:
        return op in self._items

    def get(self, op: str) -> Optional[ScheduledOp]:
        """The scheduled item of ``op``, or None if it is not scheduled."""
        return self._items.get(op)

    def item(self, op: str) -> ScheduledOp:
        try:
            return self._items[op]
        except KeyError:
            raise SchedulingError(f"operation {op!r} is not scheduled") from None

    def edge_of(self, op: str) -> str:
        return self.item(op).edge

    def step_of(self, op: str) -> int:
        return self.item(op).step

    def variant_of(self, op: str) -> Optional[ResourceVariant]:
        return self.item(op).variant

    def ops_on_edge(self, edge: str) -> List[ScheduledOp]:
        return [self._items[name] for name in self._by_edge.get(edge, [])]

    @property
    def items(self) -> List[ScheduledOp]:
        return list(self._items.values())

    @property
    def scheduled_ops(self) -> List[str]:
        return list(self._items)

    @property
    def used_edges(self) -> List[str]:
        return [edge for edge, ops in self._by_edge.items() if ops]

    def num_scheduled(self) -> int:
        return len(self._items)

    def is_complete(self) -> bool:
        """True when every non-constant operation of the design is scheduled."""
        from repro.ir.operations import OpKind
        expected = {op.name for op in self.design.dfg.operations
                    if op.kind is not OpKind.CONST}
        return expected.issubset(self._items.keys())

    def as_sched_map(self) -> Dict[str, str]:
        """The paper's ``sched: O -> E`` mapping."""
        return {name: item.edge for name, item in self._items.items()}

    def variant_map(self) -> Dict[str, Optional[ResourceVariant]]:
        return {name: item.variant for name, item in self._items.items()}

    def latency_steps(self) -> int:
        """Number of distinct control steps used (1 + max step index)."""
        if not self._items:
            return 0
        return max(item.step for item in self._items.values()) + 1

    def state_utilisation(self) -> Dict[str, float]:
        """Per-edge longest combinational finish time (chain length in ps)."""
        result: Dict[str, float] = {}
        for edge, names in self._by_edge.items():
            if names:
                result[edge] = max(self._items[n].finish for n in names)
        return result

    # -- validation ---------------------------------------------------------------

    def validate(self) -> List[str]:
        """Check data-dependency and clock-period consistency.

        Returns a list of violation messages (empty when the schedule is
        consistent).  Dependencies must not go backwards in control steps;
        same-step dependencies must respect chaining order; no finish time may
        exceed the clock period.
        """
        problems: List[str] = []
        dfg = self.design.dfg
        for edge in dfg.forward_edges:
            if edge.src not in self._items or edge.dst not in self._items:
                continue
            src = self._items[edge.src]
            dst = self._items[edge.dst]
            if dst.step < src.step:
                problems.append(
                    f"{edge.dst} (step {dst.step}) scheduled before its producer "
                    f"{edge.src} (step {src.step})"
                )
            elif dst.step == src.step and dst.start + _EPS < src.finish:
                problems.append(
                    f"{edge.dst} starts at {dst.start:.1f} before {edge.src} "
                    f"finishes at {src.finish:.1f} in the same step"
                )
        for item in self._items.values():
            if item.finish > self.clock_period + _EPS:
                problems.append(
                    f"{item.op} finishes at {item.finish:.1f} ps, beyond the clock "
                    f"period {self.clock_period:.1f} ps"
                )
        return problems

    def describe(self) -> str:
        """Human-readable state-by-state listing (the Fig. 2 view)."""
        lines = [f"Schedule of {self.design.name} @ T={self.clock_period:.0f} ps"]
        by_step: Dict[int, List[ScheduledOp]] = {}
        for item in self._items.values():
            by_step.setdefault(item.step, []).append(item)
        for step in sorted(by_step):
            ops = sorted(by_step[step], key=lambda i: (i.start, i.op))
            lines.append(f"  step {step}:")
            for item in ops:
                variant = item.variant.name if item.variant else "-"
                lines.append(
                    f"    {item.op:<20} [{item.start:7.1f}, {item.finish:7.1f}] "
                    f"on {item.edge:<6} ({variant})"
                )
        return "\n".join(lines)

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"Schedule({self.design.name}: {len(self._items)} ops, "
                f"{self.latency_steps()} steps)")
