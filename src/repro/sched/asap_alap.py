"""ASAP and ALAP scheduling (no resource constraints).

These unconstrained schedules serve three purposes:

* the conventional "Case 1" baseline of the paper's motivating example
  (Fig. 2(b)) is an ASAP schedule with the fastest resources;
* ASAP/ALAP step indices bound each operation's mobility and provide the
  classic list-scheduling priority;
* the ALAP schedule gives the latest feasible placement used by tests as an
  oracle for span correctness.

Both schedulers honour operation chaining: consecutive dependent operations
stay in the same state as long as their combined delay fits the clock
period, otherwise the consumer moves to the next state of its span.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.errors import SchedulingError
from repro.ir.design import Design
from repro.ir.operations import OpKind
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans
from repro.sched.schedule import Schedule

_EPS = 1e-6


def asap_schedule(
    design: Design,
    library: Library,
    clock_period: float,
    variant_map: Mapping[str, Optional[ResourceVariant]],
) -> Schedule:
    """As-soon-as-possible schedule with operation chaining."""
    latency = LatencyAnalysis(design.cfg)
    spans = OperationSpans(design, latency=latency)
    dfg = design.dfg
    schedule = Schedule(design, clock_period)
    edge_order = latency.forward_edge_names
    edge_pos = {name: index for index, name in enumerate(edge_order)}

    for name in dfg.topological_order():
        op = dfg.op(name)
        if op.kind is OpKind.CONST:
            continue
        variant = variant_map.get(name)
        delay = library.operation_delay(op, variant)
        if delay > clock_period + _EPS:
            raise SchedulingError(
                f"operation {name!r} ({delay:.0f} ps) cannot fit in the "
                f"{clock_period:.0f} ps budget on any state"
            )
        span_edges = spans.span(name).edges
        # Earliest edge allowed by data predecessors.
        min_pos = edge_pos[span_edges[0]]
        chain_start = 0.0
        for pred in dfg.predecessors(name):
            if not schedule.is_scheduled(pred):
                continue  # constants
            pred_item = schedule.item(pred)
            pred_pos = edge_pos[pred_item.edge]
            if pred_pos > min_pos:
                min_pos = pred_pos
                chain_start = pred_item.finish
            elif pred_pos == min_pos:
                chain_start = max(chain_start, pred_item.finish)
        placed = False
        for edge_name in span_edges:
            pos = edge_pos[edge_name]
            if pos < min_pos:
                continue
            start = chain_start if pos == min_pos else 0.0
            if start + delay <= clock_period + _EPS:
                schedule.assign(name, edge_name, pos, start, start + delay, variant)
                placed = True
                break
        if not placed:
            raise SchedulingError(
                f"operation {name!r} does not fit on any edge of its span "
                f"{list(span_edges)} within the clock period"
            )
    return schedule


def alap_schedule(
    design: Design,
    library: Library,
    clock_period: float,
    variant_map: Mapping[str, Optional[ResourceVariant]],
) -> Schedule:
    """As-late-as-possible schedule with operation chaining."""
    latency = LatencyAnalysis(design.cfg)
    spans = OperationSpans(design, latency=latency)
    dfg = design.dfg
    schedule = Schedule(design, clock_period)
    edge_order = latency.forward_edge_names
    edge_pos = {name: index for index, name in enumerate(edge_order)}

    # finish_budget[op] = latest finish offset allowed inside its chosen state.
    finish_budget: Dict[str, float] = {}

    for name in reversed(dfg.topological_order()):
        op = dfg.op(name)
        if op.kind is OpKind.CONST:
            continue
        variant = variant_map.get(name)
        delay = library.operation_delay(op, variant)
        if delay > clock_period + _EPS:
            raise SchedulingError(
                f"operation {name!r} ({delay:.0f} ps) cannot fit in the "
                f"{clock_period:.0f} ps budget on any state"
            )
        span_edges = spans.span(name).edges
        max_pos = edge_pos[span_edges[-1]]
        latest_finish = clock_period
        for succ in dfg.successors(name):
            if not schedule.is_scheduled(succ):
                continue
            succ_item = schedule.item(succ)
            succ_pos = edge_pos[succ_item.edge]
            if succ_pos < max_pos:
                max_pos = succ_pos
                latest_finish = succ_item.start
            elif succ_pos == max_pos:
                latest_finish = min(latest_finish, succ_item.start)
        placed = False
        for edge_name in reversed(span_edges):
            pos = edge_pos[edge_name]
            if pos > max_pos:
                continue
            finish = latest_finish if pos == max_pos else clock_period
            start = finish - delay
            if start >= -_EPS:
                schedule.assign(name, edge_name, pos, max(start, 0.0),
                                max(start, 0.0) + delay, variant)
                placed = True
                break
        if not placed:
            raise SchedulingError(
                f"operation {name!r} does not fit on any edge of its span "
                f"{list(span_edges)} within the clock period (ALAP)"
            )
    return schedule
