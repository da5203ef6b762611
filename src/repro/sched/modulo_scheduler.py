"""II-constrained modulo scheduling for loop-carried (cyclic) designs.

Software pipelining overlaps loop iterations at a fixed *initiation
interval* (II): iteration ``i + 1`` starts II states after iteration ``i``,
so operations in II-congruent states share resource instances and a value
produced by iteration ``i`` may be consumed by iteration ``i + d`` across a
loop-carried dependence of distance ``d``.

The lower bound on the II is ``MII = max(ResMII, RecMII)``:

* **ResMII** — resource-constrained minimum: with ``limit`` instances of a
  class and ``count`` operations using it, ``II >= ceil(count / limit)``.
  No flow fixes an allocation, though: the relaxation loop starts from the
  minimal allocation at each II and adds instances freely, so ResMII is 1
  and RecMII alone sets the MII.
* **RecMII** — recurrence-constrained minimum: every dependence cycle must
  pay for its total delay within ``distance * II`` states.  Probed by
  building the cyclic timed DFG at II = 1, 2, ... and asking the Bellman-Ford
  cyclic kernel whether the constraint graph converges — non-convergence is
  exactly a positive-gain recurrence, i.e. II < RecMII.

:func:`try_modulo_schedule` takes :func:`try_list_schedule`'s arguments, bar
its re-budgeting hook, so the relaxation loop can run either engine.  It
reuses the list scheduler for placement (which already folds resource slots
modulo II) and layers the carried-dependence constraint on top: after each
complete pass every backward edge ``src -> dst`` with distance ``d`` must
satisfy ``step(src) <= step(dst) + d * II``.  A violated edge tightens
``src``'s deadline (clamping its span) and the pass is retried; a deadline
that empties a span — the recurrence simply does not fit at this II — fails
with the structured reason ``"recurrence"``, which the relaxation loop turns
into an II bump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import SchedulingError
from repro.ir.design import Design
from repro.ir.operations import OpKind
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans, SpanInfo
from repro.core.timed_dfg import build_cyclic_timed_dfg
from repro.sched.allocation import Allocation, resource_class_key
from repro.sched.list_scheduler import (
    SchedulingAttempt,
    SchedulingFailure,
    try_list_schedule,
)
from repro.sched.priorities import PriorityFn
from repro.sched.schedule import Schedule

_EPS = 1e-6

#: Probe ceiling for RecMII.  A recurrence needing more than this many
#: states per iteration means the clock period is far too tight for the
#: loop body; probing further would only delay the inevitable
#: infeasibility report.
_MAX_II = 64


@dataclass(frozen=True)
class MIIResult:
    """Minimum initiation interval and its two components."""

    res_mii: int
    rec_mii: int

    @property
    def mii(self) -> int:
        return max(self.res_mii, self.rec_mii)

    def __str__(self):  # pragma: no cover - cosmetic
        return (f"MII={self.mii} (ResMII={self.res_mii}, "
                f"RecMII={self.rec_mii})")


def compute_rec_mii(
    design: Design,
    delays: Mapping[str, float],
    clock_period: float,
    spans: Optional[OperationSpans] = None,
    latency: Optional[LatencyAnalysis] = None,
) -> int:
    """Recurrence-constrained minimum II of ``design`` at ``clock_period``.

    Probes II = 1, 2, ... and returns the first II whose cyclic constraint
    graph converges (see :func:`repro.core.graphkit.bellman_ford_arrival`;
    plain, not aligned, arrival times).  ``delays`` fixes the assumed
    operation delays — RecMII depends on the chosen speed grades, so
    callers probing a lower bound should pass the fastest feasible grades.
    Raises :class:`SchedulingError` when no II up to ``_MAX_II`` converges.
    """
    if not design.dfg.backward_edges:
        return 1
    from repro.core.graphkit import bellman_ford_arrival

    latency = latency or LatencyAnalysis(design.cfg)
    spans = spans or OperationSpans(design, latency=latency)
    for ii in range(1, _MAX_II + 1):
        timed = build_cyclic_timed_dfg(design, ii, spans=spans, latency=latency)
        graph = timed.compact()
        _, improving = bellman_ford_arrival(
            graph, graph.delay_vector(delays), clock_period)
        if not improving:
            return ii
    raise SchedulingError(
        f"no initiation interval up to {_MAX_II} satisfies the recurrences of "
        f"design {design.name!r} at T={clock_period:.0f} ps"
    )


def compute_mii(
    design: Design,
    library: Library,
    clock_period: float,
    variant_map: Optional[Mapping[str, Optional[ResourceVariant]]] = None,
    spans: Optional[OperationSpans] = None,
    latency: Optional[LatencyAnalysis] = None,
) -> MIIResult:
    """``MII = max(ResMII, RecMII)`` for ``design`` at ``clock_period``.

    ``variant_map`` fixes the speed grades used for the recurrence probe
    (missing entries fall back to the library's default delay for the
    operation).  ResMII is 1: the relaxation loop starts from the minimal
    allocation at each II and adds instances freely, so no allocation
    bounds the II.
    """
    variant_map = variant_map or {}
    delays: Dict[str, float] = {}
    for op in design.dfg.operations:
        if op.kind is OpKind.CONST:
            continue
        delays[op.name] = library.operation_delay(op, variant_map.get(op.name))
    return MIIResult(res_mii=1,
                     rec_mii=compute_rec_mii(design, delays, clock_period,
                                             spans=spans, latency=latency))


class _ClampedSpans:
    """Span view layering per-operation deadline clamps over real spans.

    The list scheduler only ever calls ``spans.span(name)``; this wrapper
    serves clamped :class:`SpanInfo` records (span edges truncated at the
    operation's deadline step) and delegates everything else.  Span edge
    tuples are topologically ordered, so truncation keeps a prefix and the
    early edge never moves.
    """

    def __init__(self, spans: OperationSpans,
                 edge_step: Mapping[str, int]) -> None:
        self._spans = spans
        self._edge_step = edge_step
        self._max_step: Dict[str, int] = {}
        self._cache: Dict[str, SpanInfo] = {}

    def clamp(self, op_name: str, max_step: int) -> Optional[SpanInfo]:
        """Tighten ``op_name``'s deadline; None when the span would empty."""
        current = self._max_step.get(op_name)
        if current is not None and max_step >= current:
            return self._cache.get(op_name) or self.span(op_name)
        info = self._spans.span(op_name)
        edge_step = self._edge_step
        edges = tuple(e for e in info.edges if edge_step[e] <= max_step)
        if not edges:
            return None
        self._max_step[op_name] = max_step
        clamped = SpanInfo(op=info.op, early=edges[0], late=edges[-1],
                           edges=edges)
        self._cache[op_name] = clamped
        return clamped

    def span(self, op_name: str) -> SpanInfo:
        cached = self._cache.get(op_name)
        if cached is not None:
            return cached
        info = self._spans.span(op_name)
        self._cache[op_name] = info
        return info

    def early(self, op_name: str) -> str:
        return self.span(op_name).early

    def late(self, op_name: str) -> str:
        return self.span(op_name).late

    def __getattr__(self, name):
        return getattr(self._spans, name)


def _carried_violations(
    schedule: Schedule,
    carried,
    ii: int,
) -> List[Tuple[str, str, int]]:
    """Violated carried dependences as ``(src, dst, deadline_step)`` triples.

    A backward edge ``src -> dst`` with distance ``d`` is satisfied when the
    producer's control step is at most ``d * ii`` states after the consumer's
    (``step(src) <= step(dst) + d * ii``); at exact equality the producer and
    consumer share an absolute state, so the consumer must additionally start
    after the producer finishes (register-free chaining order).
    """
    violations: List[Tuple[str, str, int]] = []
    for edge in carried:
        src_item = schedule.get(edge.src)
        dst_item = schedule.get(edge.dst)
        if src_item is None or dst_item is None:
            continue  # constant endpoints are never scheduled
        budget = dst_item.step + edge.distance * ii
        if src_item.step > budget:
            violations.append((edge.src, edge.dst, budget))
        elif (src_item.step == budget
              and dst_item.start + _EPS < src_item.finish):
            violations.append((edge.src, edge.dst, budget - 1))
    return violations


def try_modulo_schedule(
    design: Design,
    library: Library,
    clock_period: float,
    variant_map: Mapping[str, Optional[ResourceVariant]],
    allocation: Allocation,
    spans: Optional[OperationSpans] = None,
    latency: Optional[LatencyAnalysis] = None,
    priority: Optional[PriorityFn] = None,
    pipeline_ii: Optional[int] = None,
) -> SchedulingAttempt:
    """One modulo-scheduling pass at initiation interval ``pipeline_ii``.

    Same signature and result contract as :func:`try_list_schedule` (less
    its ``post_edge_hook``: no flow re-budgets a modulo pass), plus
    one extra structured failure reason ``"recurrence"``: the loop-carried
    dependences do not fit at this II no matter where operations are placed.
    The relaxation loop maps that reason to an II bump, exactly as it maps
    ``"resource"`` to an added instance.

    On success the returned schedule satisfies every carried dependence
    (``step(src) <= step(dst) + distance * II``, with chaining order enforced
    at equality) and carries the II it was scheduled at in
    ``schedule.pipeline_ii``.
    """
    ii = pipeline_ii or design.pipeline_ii or 1
    latency = latency or LatencyAnalysis(design.cfg)
    spans = spans or OperationSpans(design, latency=latency)
    carried = design.dfg.backward_edges
    edge_order = latency.forward_edge_names
    edge_step = {name: index for index, name in enumerate(edge_order)}
    view = _ClampedSpans(spans, edge_step)
    # Every retry strictly tightens at least one producer's deadline, so the
    # clamp budget below can never be the binding limit on a feasible design.
    max_rounds = max(1, len(carried)) * max(1, len(edge_order)) + 1

    attempt: Optional[SchedulingAttempt] = None
    for _ in range(max_rounds):
        attempt = try_list_schedule(
            design, library, clock_period, variant_map, allocation,
            spans=view, latency=latency, priority=priority,
            pipeline_ii=ii,
        )
        if not attempt.success:
            return attempt
        schedule = attempt.schedule
        violations = _carried_violations(schedule, carried, ii)
        if not violations:
            schedule.pipeline_ii = ii
            return attempt
        for src, dst, deadline in violations:
            if deadline < 0 or view.clamp(src, deadline) is None:
                return SchedulingAttempt(
                    success=False,
                    failure=SchedulingFailure(
                        op=src, edge=spans.span(src).late,
                        reason="recurrence",
                        class_key=resource_class_key(design.dfg.op(src),
                                                     library),
                        detail=(f"carried dependence {src!r} -> {dst!r} needs "
                                f"{src!r} by step {deadline}, before its span "
                                f"begins; II={ii} is below the recurrence "
                                f"minimum"),
                    ),
                )
    # Unreachable for well-formed spans (each round tightens a deadline and
    # deadlines are bounded below by 0), kept as a hard backstop.
    src, dst, deadline = violations[0]
    return SchedulingAttempt(
        success=False,
        failure=SchedulingFailure(
            op=src, edge=spans.span(src).late, reason="recurrence",
            detail=f"carried-dependence repair did not converge at II={ii}",
        ),
    )

