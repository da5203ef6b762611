"""Resource- and timing-constrained list scheduling over CFG edges.

This is the ``Schedule_pass`` of the paper's Fig. 8 (without the re-budgeting
steps, which the slack-guided scheduler adds on top):

* CFG edges are visited in topological order;
* on each edge, *ready* operations (all data predecessors scheduled, edge
  inside the operation's span) are scheduled in priority order as long as
  both the per-state resource limits and the clock period (with operation
  chaining) allow it;
* an operation that reaches the last edge of its span without being
  scheduled makes the pass fail, with a structured diagnostic (which
  operation, which edge, whether resources or timing were the bottleneck)
  that the relaxation "expert system" uses to decide how to relax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.ir.design import Design
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.core.analysis_cache import default_cache
from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans, SpanInfo
from repro.sched.allocation import Allocation, ClassKey
from repro.sched.priorities import PriorityFn, mobility_priority
from repro.sched.schedule import Schedule, ScheduledOp

_EPS = 1e-6


@dataclass
class SchedulingFailure:
    """Structured diagnostic of a failed scheduling pass.

    ``blocking_class_key`` names the resource class of the same-state chain
    predecessor that pushed the failing operation past the clock period (the
    class whose shortage deferred the chain this late); the relaxation loop
    adds an instance of that class when grade upgrades cannot help.
    """

    op: str
    edge: str
    reason: str  # "resource" | "timing" | "unreachable"
    class_key: Optional[ClassKey] = None
    blocking_class_key: Optional[ClassKey] = None
    detail: str = ""

    def __str__(self):  # pragma: no cover - cosmetic
        return (f"cannot schedule {self.op!r} on edge {self.edge!r} "
                f"({self.reason}): {self.detail}")


@dataclass
class SchedulingAttempt:
    """Result of one scheduling pass: either a schedule or a failure."""

    success: bool
    schedule: Optional[Schedule] = None
    failure: Optional[SchedulingFailure] = None


def try_list_schedule(
    design: Design,
    library: Library,
    clock_period: float,
    variant_map: Mapping[str, Optional[ResourceVariant]],
    allocation: Allocation,
    spans: Optional[OperationSpans] = None,
    latency: Optional[LatencyAnalysis] = None,
    priority: Optional[PriorityFn] = None,
    pipeline_ii: Optional[int] = None,
    post_edge_hook=None,
) -> SchedulingAttempt:
    """One resource-constrained list-scheduling pass.

    ``variant_map`` fixes the speed grade of every synthesizable operation
    (fastest grades for the conventional flow, budgeted grades for the
    slack-based flow).  ``allocation`` limits how many operations of a class
    may execute in the same state (or the same II-congruent state group).

    ``post_edge_hook(edge_name, schedule, pending)`` is called after every
    CFG edge has been processed.  It may change grades in ``variant_map`` in
    place, and return ``None`` (no other change) or a ``(spans, priority)``
    pair that replaces the analyses used for the remaining edges — this is
    how the slack-guided scheduler injects its re-budgeting step (the bold
    steps of the paper's Fig. 8) without duplicating the scheduling engine.

    The pass upgrades on the fly: when an operation reaches the last edge of
    its span and its chained delay does not fit, its own speed grade is
    raised just enough to fit before giving up.  When ``variant_map`` is a
    mutable dict the upgrade is recorded in it so callers see the final
    grades.

    The pass reads every operation's class key, delays, non-constant
    predecessors and successors and its scan order from the design's op
    table (:meth:`repro.core.analysis_cache.AnalysisCache.budget_template`),
    which each (design, library) resolves once for every pass of both
    flows.  The pass makes only its mutable state: the pending set and each
    operation's count of unscheduled predecessors; it is ready at zero.  An
    edge's first round tries every ready operation whose span holds the
    edge, each later round only those that became ready in the previous
    one.  That is exact: a ready operation that did not fit and is not on
    its last chance cannot fit later on the edge (its chained start and
    delay are fixed, slot usage only grows), and a failed try has no side
    effect.  Priority keys are computed once per operation and priority
    function.
    """
    latency = latency or LatencyAnalysis(design.cfg)
    spans = spans or OperationSpans(design, latency=latency)
    priority = priority or mobility_priority(spans)
    pipeline_ii = pipeline_ii or design.pipeline_ii

    schedule = Schedule(design, clock_period)
    mod_ii = pipeline_ii if pipeline_ii is not None and pipeline_ii >= 1 else None

    # The design's op table, on op indices.  Constant operations are never
    # scheduled, so every lookup below (readiness, chained start, chain
    # driver) sees only the non-constant predecessors.  Exactly the
    # synthesizable operations have a class key; the others have a static
    # delay.
    table = default_cache().budget_template(design, library)
    index_of = table.index
    class_keys = table.class_keys
    static_delays = table.static_delays
    fastest_delays = table.fastest_delays
    preds_of = table.preds
    succs_of = table.succs
    pending_order = table.scan_order
    # Filled one by one in design order: the order in which a hook iterates
    # ``frozenset(pending)`` follows this insertion history.
    pending = set(table.names)
    waiting = {name: len(preds) for name, preds in zip(table.names, preds_of)}
    priority_keys: Dict[str, tuple] = {}
    usage: Dict[Tuple[int, ClassKey], int] = {}

    for step, edge_name in enumerate(latency.forward_edge_names):
        slot_step = step % mod_ii if mod_ii is not None else step
        # Operations only leave ``pending``, so filtering the sorted list
        # keeps the scan in name order.  Spans only change in the hook, so
        # the eligible set is fixed for the whole edge.
        pending_order = [n for n in pending_order if n in pending]
        span_of = spans.span
        eligible: Dict[str, SpanInfo] = {}
        for name in pending_order:
            info = span_of(name)
            if edge_name in info.edges:
                eligible[name] = info
        placed: Dict[str, ScheduledOp] = {}
        ready = [name for name in eligible if not waiting[name]]
        while ready:
            for name in ready:
                if name not in priority_keys:
                    priority_keys[name] = priority(name)
            # Operations on the last edge of their span must go first:
            # deferring them is impossible.
            ready.sort(key=lambda n: (eligible[n].late != edge_name,
                                      priority_keys[n]))
            newly_ready: List[str] = []
            for name in ready:
                index = index_of[name]
                variant = variant_map.get(name)
                key = class_keys[index]
                if key is None:
                    delay = static_delays[index]
                else:
                    delay = (variant.delay if variant is not None else
                             fastest_delays[index])
                start = 0.0
                for pred in preds_of[index]:
                    pred_item = placed.get(pred)
                    if pred_item is not None and pred_item.finish > start:
                        start = pred_item.finish
                finish = start + delay
                fits_timing = finish <= clock_period + _EPS
                last_chance = (edge_name == eligible[name].late)
                if (not fits_timing and last_chance
                        and variant is not None and key is not None):
                    # Upgrade on the fly: take the cheapest grade that fits.
                    faster = table.classes[index].cheapest_within(
                        clock_period - start)
                    if faster.delay < variant.delay:
                        variant = faster
                        delay = faster.delay
                        finish = start + delay
                        fits_timing = finish <= clock_period + _EPS
                        if isinstance(variant_map, dict):
                            variant_map[name] = faster
                slot = (slot_step, key) if key is not None else None
                fits_resource = (key is None or
                                 usage.get(slot, 0) < allocation.limit(key))
                if fits_timing and fits_resource:
                    placed[name] = schedule.assign(name, edge_name, step, start,
                                                   finish, variant)
                    pending.discard(name)
                    if slot is not None:
                        usage[slot] = usage.get(slot, 0) + 1
                    for succ in succs_of[index]:
                        waiting[succ] -= 1
                        if not waiting[succ] and succ in eligible:
                            newly_ready.append(succ)
                elif last_chance:
                    blocking_key = None
                    if not fits_resource:
                        reason, detail = "resource", (
                            f"all {allocation.limit(key)} instance(s) of "
                            f"{key[0]}/{key[1]} are busy in step {step}"
                        )
                    else:
                        reason, detail = "timing", (
                            f"chained start {start:.1f} ps + delay {delay:.1f} ps "
                            f"exceeds the {clock_period:.1f} ps budget"
                        )
                        # Identify the chain driver: walk up the same-state
                        # combinational chain (through the first predecessor
                        # with the latest finish) to its head — the operation
                        # deferred onto this state by resource scarcity — and
                        # report its class so relaxation can add one.
                        current = name
                        while chained := [p for p in preds_of[index_of[current]]
                                          if p in placed]:
                            current = max(chained, key=lambda p: placed[p].finish)
                        if current != name:
                            blocking_key = class_keys[index_of[current]]
                    return SchedulingAttempt(
                        success=False,
                        failure=SchedulingFailure(op=name, edge=edge_name,
                                                  reason=reason, class_key=key,
                                                  blocking_class_key=blocking_key,
                                                  detail=detail),
                    )
            newly_ready.sort()
            ready = newly_ready
        if post_edge_hook is not None and pending:
            update = post_edge_hook(edge_name, schedule, frozenset(pending))
            if update is not None:
                spans, priority = update
                priority_keys = {}
        # Any pending operation whose span ends here but never became ready
        # (its predecessors are stuck) is a hard failure.
        span_of = spans.span
        for name in pending_order:
            if name in pending and span_of(name).late == edge_name:
                return SchedulingAttempt(
                    success=False,
                    failure=SchedulingFailure(
                        op=name, edge=edge_name, reason="unreachable",
                        class_key=class_keys[index_of[name]],
                        detail="operation never became ready before the end of "
                               "its span (a predecessor could not be scheduled)",
                    ),
                )

    if pending:
        name = min(pending)
        return SchedulingAttempt(
            success=False,
            failure=SchedulingFailure(
                op=name, edge=spans.span(name).late, reason="unreachable",
                class_key=class_keys[index_of[name]],
                detail="operation left unscheduled after visiting every edge",
            ),
        )
    return SchedulingAttempt(success=True, schedule=schedule)

