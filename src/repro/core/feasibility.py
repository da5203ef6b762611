"""Design feasibility checks (paper Section VI, Proposition 1).

If every operation has positive *aligned* sequential slack under a dedicated
(one resource per operation) binding, then a feasible schedule exists whose
netlist meets timing; conversely, negative aligned slack after budgeting
proves that no schedule can meet timing with the given latency and clock.
These checks are cheap (one slack computation).  They are a library entry
point for testing Proposition 1 on a design; neither flow calls them, since
the flows learn infeasibility from budgeting and the relaxation loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.errors import TimingError
from repro.ir.design import Design
from repro.ir.operations import OpKind
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans
from repro.core.sequential_slack import (
    TimingResult,
    aligned_start,
    compute_sequential_slack,
)
from repro.core.timed_dfg import build_timed_dfg
from repro.sched.schedule import Schedule

_EPS = 1e-6


@dataclass
class FeasibilityReport:
    """Outcome of a Proposition-1 feasibility check."""

    feasible: bool
    clock_period: float
    timing: TimingResult
    violations: List[str] = field(default_factory=list)

    def worst_slack(self) -> float:
        return self.timing.worst_slack()


def check_feasibility(
    design: Design,
    library: Library,
    clock_period: float,
    variants: Optional[Mapping[str, Optional[ResourceVariant]]] = None,
    delays: Optional[Mapping[str, float]] = None,
    aligned: bool = True,
    spans: Optional[OperationSpans] = None,
    latency: Optional[LatencyAnalysis] = None,
) -> FeasibilityReport:
    """Check whether ``design`` can meet ``clock_period`` with dedicated resources.

    Delays are taken (in order of precedence) from ``delays``, from
    ``variants``, or from the fastest library grades.
    """
    latency = latency or LatencyAnalysis(design.cfg)
    spans = spans or OperationSpans(design, latency=latency)
    timed = build_timed_dfg(design, spans=spans, latency=latency)

    delay_map: Dict[str, float] = {}
    for op in design.dfg.operations:
        if op.kind is OpKind.CONST:
            continue
        if delays is not None and op.name in delays:
            delay_map[op.name] = float(delays[op.name])
        elif variants is not None and op.name in variants:
            delay_map[op.name] = library.operation_delay(op, variants[op.name])
        else:
            delay_map[op.name] = library.operation_delay(op)

    timing = compute_sequential_slack(timed, delay_map, clock_period, aligned=aligned)
    violations = [name for name, value in timing.slack.items() if value < -_EPS]
    return FeasibilityReport(
        feasible=not violations,
        clock_period=clock_period,
        timing=timing,
        violations=sorted(violations),
    )


def schedule_from_arrival_times(
    design: Design,
    library: Library,
    clock_period: float,
    timing: TimingResult,
    variants: Optional[Mapping[str, Optional[ResourceVariant]]] = None,
    spans: Optional[OperationSpans] = None,
    latency: Optional[LatencyAnalysis] = None,
) -> Schedule:
    """The constructive schedule of Proposition 1.

    Every operation is placed on the edge of its span that is
    ``floor(aligned arrival / T)`` state boundaries after its early edge,
    with its chaining offset equal to the within-cycle part of the aligned
    arrival time.  With dedicated resources this schedule meets timing
    whenever the aligned slack of every operation is non-negative.
    """
    latency = latency or LatencyAnalysis(design.cfg)
    spans = spans or OperationSpans(design, latency=latency)
    schedule = Schedule(design, clock_period)
    edge_pos = {name: index for index, name in enumerate(latency.forward_edge_names)}

    for op in design.dfg.operations:
        if op.kind is OpKind.CONST:
            continue
        name = op.name
        if name not in timing.arrival:
            raise TimingError(f"timing result has no arrival time for {name!r}")
        variant = variants.get(name) if variants else None
        delay = library.operation_delay(op, variant)
        start = aligned_start(timing.arrival[name], delay, clock_period)
        cycles = max(0, math.floor(start / clock_period + _EPS))
        offset = start - cycles * clock_period
        if offset < 0:
            offset = 0.0
        info = spans.span(name)
        chosen = info.edges[-1]
        for edge in info.edges:
            distance = latency.latency(info.early, edge)
            if distance is not None and distance >= cycles:
                chosen = edge
                break
        schedule.assign(name, chosen, edge_pos[chosen], offset, offset + delay,
                        variant)
    return schedule
