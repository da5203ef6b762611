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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ir.design import Design
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.core.analysis_cache import default_cache
from repro.core.latency import EdgeBitsets, LatencyAnalysis
from repro.core.opspan import OperationSpans
from repro.sched.allocation import Allocation, ClassKey
from repro.sched.priorities import PriorityFn, mobility_priority
from repro.sched.schedule import Schedule

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

    The pass runs on op indices: operation ``i`` is the op table's ``i``-th
    operation (:meth:`repro.core.analysis_cache.AnalysisCache.budget_template`),
    which each (design, library) resolves once for every pass of both flows,
    and from which the pass reads every operation's class key, delays,
    non-constant predecessors and successors and its scan order (name
    order).  Its own state is a list per operation: the pending flags, the
    counts of unscheduled predecessors (an operation is ready at zero), the
    priority keys, the grades, and the spans as an eligible-edge bitmask
    (bit ``k`` is forward edge ``k``, as in
    :class:`repro.core.latency.EdgeBitsets`) and the position of the late
    edge.  The spans come from ``spans`` once per call (each call of the
    modulo engine passes its clamped view) and from the hook after that.

    ``post_edge_hook(edge_name, schedule, step)`` is called after every CFG
    edge while an operation is pending, ``step`` being the edge's position.
    It returns ``None`` (no change) or ``(priority, grades, masks, lates)``:
    a priority function of op index and, by op index, the grades, the span
    masks and the late-edge positions that replace the pass's own for the
    remaining edges.  This is how the slack-guided scheduler injects its
    re-budgeting step (the bold steps of the paper's Fig. 8) without
    duplicating the scheduling engine; the hook's lists are not changed.

    The pass upgrades on the fly: when an operation reaches the last edge of
    its span and its chained delay does not fit, its own speed grade is
    raised just enough to fit before giving up.

    When ``variant_map`` is a mutable dict, the pass writes its grades back
    into it once, when it returns: the entry of every operation that was
    pending when a hook update arrived, or that was upgraded on the fly,
    becomes the pass's last grade for it.  That is its scheduled grade once
    placed, and otherwise the last update's grade or its upgrade.  The other
    entries are left alone.

    An edge's first round tries every ready operation whose span holds the
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

    # The design's op table.  Constant operations are never scheduled, so
    # every lookup below (readiness, chained start, chain driver) sees only
    # the non-constant predecessors.  Exactly the synthesizable operations
    # have a class key; the others have a static delay.
    table = default_cache().budget_template(design, library)
    names = table.names
    class_keys = table.class_keys
    static_delays = table.static_delays
    fastest_delays = table.fastest_delays
    preds_of = table.preds
    succs_of = table.succs
    count = len(names)

    bits = latency.edge_bitsets()
    masks, lates = _span_arrays(spans, names, bits)
    key_of = lambda index: priority(names[index])  # by name until a hook update
    grades = [variant_map.get(name) for name in names]
    pending = [True] * count
    remaining = count
    waiting = [len(preds) for preds in preds_of]
    priority_keys: List[Optional[tuple]] = [None] * count
    placed_step = [-1] * count
    finish_of = [0.0] * count
    upgraded = [False] * count
    first_update: Optional[int] = None
    scan = table.scan_order
    usage: Dict[Tuple[int, ClassKey], int] = {}

    try:
        for step, edge_name in enumerate(bits.names):
            slot_step = step % mod_ii if mod_ii is not None else step
            bit = 1 << step
            # Operations only leave ``pending``, so filtering keeps the scan
            # in name order.  Spans only change in the hook, so the eligible
            # set is fixed for the whole edge.
            scan = [index for index in scan if pending[index]]
            ready = [index for index in scan
                     if masks[index] & bit and not waiting[index]]
            while ready:
                for index in ready:
                    if priority_keys[index] is None:
                        priority_keys[index] = key_of(index)
                # Operations on the last edge of their span must go first:
                # deferring them is impossible.
                ready.sort(key=lambda index: (lates[index] != step,
                                              priority_keys[index]))
                newly_ready: List[int] = []
                for index in ready:
                    variant = grades[index]
                    key = class_keys[index]
                    if key is None:
                        delay = static_delays[index]
                    else:
                        delay = (variant.delay if variant is not None else
                                 fastest_delays[index])
                    start = 0.0
                    for pred in preds_of[index]:
                        if placed_step[pred] == step and finish_of[pred] > start:
                            start = finish_of[pred]
                    finish = start + delay
                    fits_timing = finish <= clock_period + _EPS
                    last_chance = lates[index] == step
                    if (not fits_timing and last_chance
                            and variant is not None and key is not None):
                        # Upgrade on the fly: take the cheapest grade that
                        # fits.
                        faster = table.classes[index].cheapest_within(
                            clock_period - start)
                        if faster.delay < variant.delay:
                            variant = faster
                            delay = faster.delay
                            finish = start + delay
                            fits_timing = finish <= clock_period + _EPS
                            grades[index] = faster
                            upgraded[index] = True
                    slot = (slot_step, key) if key is not None else None
                    fits_resource = (key is None or
                                     usage.get(slot, 0) < allocation.limit(key))
                    if fits_timing and fits_resource:
                        schedule.assign(names[index], edge_name, step, start,
                                        finish, variant)
                        pending[index] = False
                        remaining -= 1
                        placed_step[index] = step
                        finish_of[index] = finish
                        if slot is not None:
                            usage[slot] = usage.get(slot, 0) + 1
                        for succ in succs_of[index]:
                            waiting[succ] -= 1
                            if not waiting[succ] and masks[succ] & bit:
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
                                f"chained start {start:.1f} ps + delay "
                                f"{delay:.1f} ps exceeds the "
                                f"{clock_period:.1f} ps budget"
                            )
                            # Identify the chain driver: walk up the
                            # same-state combinational chain (through the
                            # first predecessor with the latest finish) to
                            # its head — the operation deferred onto this
                            # state by resource scarcity — and report its
                            # class so relaxation can add one.
                            current = index
                            while chained := [pred for pred in preds_of[current]
                                              if placed_step[pred] == step]:
                                current = max(chained, key=finish_of.__getitem__)
                            if current != index:
                                blocking_key = class_keys[current]
                        return SchedulingAttempt(
                            success=False,
                            failure=SchedulingFailure(
                                op=names[index], edge=edge_name,
                                reason=reason, class_key=key,
                                blocking_class_key=blocking_key,
                                detail=detail),
                        )
                newly_ready.sort(key=names.__getitem__)
                ready = newly_ready
            if post_edge_hook is not None and remaining:
                update = post_edge_hook(edge_name, schedule, step)
                if update is not None:
                    key_of, hook_grades, masks, lates = update
                    grades = list(hook_grades)
                    priority_keys = [None] * count
                    if first_update is None:
                        first_update = step
            # Any pending operation whose span ends here but never became
            # ready (its predecessors are stuck) is a hard failure.
            for index in scan:
                if pending[index] and lates[index] == step:
                    return SchedulingAttempt(
                        success=False,
                        failure=SchedulingFailure(
                            op=names[index], edge=edge_name,
                            reason="unreachable",
                            class_key=class_keys[index],
                            detail="operation never became ready before the "
                                   "end of its span (a predecessor could not "
                                   "be scheduled)",
                        ),
                    )

        if remaining:
            index = min((index for index in range(count) if pending[index]),
                        key=names.__getitem__)
            return SchedulingAttempt(
                success=False,
                failure=SchedulingFailure(
                    op=names[index], edge=bits.labels[lates[index]],
                    reason="unreachable", class_key=class_keys[index],
                    detail="operation left unscheduled after visiting every "
                           "edge",
                ),
            )
        return SchedulingAttempt(success=True, schedule=schedule)
    finally:
        if isinstance(variant_map, dict):
            for index in range(count):
                if upgraded[index] or (first_update is not None and (
                        pending[index] or placed_step[index] > first_update)):
                    variant_map[names[index]] = grades[index]


def _span_arrays(spans, names: Sequence[str],
                 bits: EdgeBitsets) -> Tuple[List[int], List[int]]:
    """Each operation's eligible-edge mask and late-edge position under
    ``spans`` (anything with ``span(name)``), by op index."""
    position = bits.position
    # A span's edges are distinct, so the sum of their bits is their mask;
    # a back edge has no bit.
    bit_of = dict.fromkeys(position, 0)
    bit_of.update((name, 1 << at) for at, name in enumerate(bits.names))
    bit = bit_of.__getitem__
    masks: List[int] = []
    lates: List[int] = []
    span_of = spans.span
    for name in names:
        info = span_of(name)
        masks.append(sum(map(bit, info.edges)))
        lates.append(position[info.late])
    return masks, lates
