"""The scheduling relaxation loop ("expert system" of the paper's Fig. 8).

``schedule_with_relaxation`` repeatedly calls the list scheduler; whenever a
pass fails it inspects the structured failure and relaxes the problem:

* a **resource** failure adds one instance of the bottleneck class;
* a **timing** failure upgrades the speed grade of the failing operation (or,
  if it is already at its fastest grade, of the slowest upgradable operation
  chained before it on that edge);
* an **unreachable** failure (a predecessor could never be scheduled) is
  treated like a resource failure on the predecessor's class when possible.

The moves live in :func:`relax`, which the slack-guided scheduler's loop
(:class:`repro.core.slack_scheduler.SlackScheduler`) calls too.  When no
relaxation can make progress an :class:`InfeasibleDesignError` is
raised — the paper's "design is overconstrained" outcome.  Adding states is
only possible by re-elaborating the design with a larger latency, which the
DSE harness does explicitly; the relaxation loop itself never changes the CFG.

Tracing (:mod:`repro.obs.trace`) records one ``sched.attempt`` span per
pass, labelled with the enclosing span's flow, the attempt number and, when
the pass fails, the failure reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import InfeasibleDesignError
from repro.ir.design import Design
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans
from repro.obs.metrics import counter as _obs_counter
from repro.obs.trace import enclosing_attr, span as _obs_span
from repro.sched.allocation import Allocation, minimal_allocation
from repro.sched.list_scheduler import SchedulingAttempt, try_list_schedule
from repro.sched.priorities import PriorityFn
from repro.sched.schedule import Schedule

#: Registry twins of the :class:`RelaxationLog` tallies (observation only;
#: the per-run log stays the public accessor — see repro.obs).
_ATTEMPTS = _obs_counter("relaxation.attempts")
_II_BUMPS = _obs_counter("relaxation.ii_bumps")
_RESOURCES_ADDED = _obs_counter("relaxation.resources_added")
_UPGRADES = _obs_counter("relaxation.upgrades")


@dataclass
class RelaxationLog:
    """Record of the relaxations applied to obtain a feasible schedule."""

    attempts: int = 0
    resources_added: List[Tuple[str, int]] = field(default_factory=list)
    upgrades: List[str] = field(default_factory=list)
    ii_bumps: List[int] = field(default_factory=list)
    final_ii: Optional[int] = None
    messages: List[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.messages.append(message)

    def count_attempt(self) -> None:
        """Count one scheduling pass (here and in the registry twin)."""
        self.attempts += 1
        _ATTEMPTS.inc()


def upgrade_for_timing(
    design: Design,
    library: Library,
    variant_map: Dict[str, Optional[ResourceVariant]],
    failure,
    log: RelaxationLog,
) -> bool:
    """Speed up the failing operation or one of the operations feeding it.

    The timing failure is caused by a combinational chain ending at
    ``failure.op``; any transitive predecessor may be the slow link, so the
    candidate set is the whole ancestor cone.  The slowest upgradable
    candidate is sped up by one grade (the "upgrade on the fly" move of the
    paper's Case 2 strategy).
    """
    dfg = design.dfg
    candidates = [failure.op]
    seen = {failure.op}
    frontier = [failure.op]
    while frontier:
        current = frontier.pop()
        for pred in dfg.predecessors(current):
            if pred not in seen:
                seen.add(pred)
                candidates.append(pred)
                frontier.append(pred)
    best: Optional[Tuple[float, float, str, ResourceVariant]] = None
    for name in candidates:
        op = dfg.op(name)
        if not op.is_synthesizable:
            continue
        variant = variant_map.get(name)
        if variant is None:
            continue
        faster = library.class_for_op(op).next_faster(variant)
        if faster is None:
            continue
        gain = variant.delay - faster.delay
        key = (variant.delay, gain)
        if best is None or key > (best[0], best[1]):
            best = (variant.delay, gain, name, faster)
    if best is None:
        return False
    _, _, name, faster = best
    variant_map[name] = faster
    log.upgrades.append(name)
    _UPGRADES.inc()
    log.note(f"upgraded {name} to {faster.name} to fix a timing failure on "
             f"{failure.op}")
    return True


def _add_instance(allocation: Allocation, class_key: Tuple[str, int],
                  log: RelaxationLog, why: str) -> None:
    allocation.add(class_key)
    log.resources_added.append(class_key)
    _RESOURCES_ADDED.inc()
    log.note(f"added one {class_key[0]}/{class_key[1]} instance {why}")


def relax(
    design: Design,
    library: Library,
    clock_period: float,
    timing_margin: float,
    failure,
    variants: Dict[str, Optional[ResourceVariant]],
    allocation: Allocation,
    log: RelaxationLog,
) -> Optional[str]:
    """Apply the expert system's move (module docstring) for ``failure``.

    Updates ``variants`` and ``allocation`` in place and returns the op
    whose grade was upgraded (``None`` when an instance was added).  Raises
    :class:`InfeasibleDesignError` when no move applies, including an op
    whose fastest grade alone exceeds the clock budget.
    """
    if failure.reason == "resource" and failure.class_key is not None:
        _add_instance(allocation, failure.class_key, log, f"for {failure.op}")
        return None
    if failure.reason == "timing":
        failing_op = design.dfg.op(failure.op)
        alone_delay = (library.class_for_op(failing_op).min_delay
                       if failing_op.is_synthesizable
                       else library.operation_delay(failing_op))
        if alone_delay > clock_period - timing_margin + 1e-6:
            raise InfeasibleDesignError(
                f"operation {failure.op!r} needs {alone_delay:.0f} ps even at "
                f"its fastest grade, which exceeds the "
                f"{clock_period - timing_margin:.0f} ps budget; the clock "
                f"period is infeasible"
            )
        if upgrade_for_timing(design, library, variants, failure, log):
            return log.upgrades[-1]
        bottleneck = failure.blocking_class_key or failure.class_key
        if bottleneck is not None:
            # Every operation in the chain is already at its fastest grade:
            # the chain was compressed because earlier states ran out of
            # resources and deferred the chain head.  Adding an instance
            # of that bottleneck class lets it schedule earlier.
            _add_instance(allocation, bottleneck, log,
                          f"after unrepairable timing failure on {failure.op}")
            return None
        raise InfeasibleDesignError(
            f"timing failure on {failure.op!r} cannot be repaired: every "
            f"operation in its chain is already at its fastest grade "
            f"({failure.detail})"
        )
    if failure.reason == "unreachable" and failure.class_key is not None:
        _add_instance(allocation, failure.class_key, log,
                      f"after unreachable failure on {failure.op}")
        return None
    raise InfeasibleDesignError(
        f"no relaxation can make the design schedulable: {failure}"
    )


def schedule_with_relaxation(
    design: Design,
    library: Library,
    clock_period: float,
    variant_map: Mapping[str, Optional[ResourceVariant]],
    allocation: Optional[Allocation] = None,
    spans: Optional[OperationSpans] = None,
    latency: Optional[LatencyAnalysis] = None,
    priority: Optional[PriorityFn] = None,
    pipeline_ii: Optional[int] = None,
    timing_margin: float = 0.0,
    max_attempts: int = 500,
    upgrade_on_last_chance: bool = True,
    scheduler=None,
    max_ii: Optional[int] = None,
) -> Tuple[Schedule, Allocation, Dict[str, Optional[ResourceVariant]], RelaxationLog]:
    """Schedule ``design``, relaxing resources/grades until a pass succeeds.

    ``scheduler`` selects the scheduling engine — any callable with
    :func:`try_list_schedule`'s signature; the pipelined flow passes
    :func:`repro.sched.modulo_scheduler.try_modulo_schedule`.  A structured
    ``"recurrence"`` failure (only the modulo engine emits it) is relaxed by
    *bumping the initiation interval* by one, the same kind of move as a
    grade upgrade or an added instance: the minimal allocation is recomputed
    at the new II (slots are capped at II, so a larger II may need fewer
    instances) unless the caller pinned an explicit ``allocation``.
    ``max_ii`` bounds the bumping (default: never beyond the design's state
    count, at which point the loop no longer overlaps at all).
    """
    latency = latency or LatencyAnalysis(design.cfg)
    spans = spans or OperationSpans(design, latency=latency)
    pinned_allocation = allocation is not None
    current_ii = pipeline_ii
    allocation = (allocation or
                  minimal_allocation(design, library, spans=spans,
                                     pipeline_ii=current_ii)).copy()
    variants: Dict[str, Optional[ResourceVariant]] = dict(variant_map)
    scheduler = scheduler or try_list_schedule
    if max_ii is None:
        max_ii = max(len(latency.forward_edge_names), 1)
    log = RelaxationLog()
    last_signature = None
    flow = enclosing_attr("flow")

    for _ in range(max_attempts):
        log.count_attempt()
        with _obs_span("sched.attempt", flow=flow,
                       attempt=log.attempts) as attempt_span:
            attempt: SchedulingAttempt = scheduler(
                design, library, clock_period, variants, allocation,
                spans=spans, latency=latency, priority=priority,
                pipeline_ii=current_ii, timing_margin=timing_margin,
                upgrade_on_last_chance=upgrade_on_last_chance,
            )
            if not attempt.success:
                attempt_span.set(failure=attempt.failure.reason)
        if attempt.success:
            log.final_ii = getattr(attempt.schedule, "pipeline_ii", None)
            return attempt.schedule, allocation, variants, log
        failure = attempt.failure
        # Under the modulo engine, a relaxation that reproduces the
        # *identical* failure made no progress: a carried-dependence clamp,
        # not the reported shortage, squeezed the failing chain — relax the
        # II instead.  The block engine has no such clamp and may legally
        # repeat a signature while upgrading different ancestor-cone ops
        # (Case 2), so it keeps relaxing until a move is exhausted (the
        # raise paths of :func:`relax`) or ``max_attempts`` runs out.
        signature = (failure.op, failure.edge, failure.reason,
                     failure.class_key, failure.blocking_class_key,
                     failure.detail)
        stalled = signature == last_signature
        last_signature = signature
        can_bump = scheduler is not try_list_schedule
        if failure.reason == "recurrence" or (stalled and can_bump):
            last_signature = None
            bumped = (current_ii or design.pipeline_ii or 1) + 1
            if bumped > max_ii:
                raise InfeasibleDesignError(
                    f"recurrences of design {design.name!r} do not fit even "
                    f"at II={max_ii} (no iteration overlap left): {failure}"
                )
            current_ii = bumped
            log.ii_bumps.append(bumped)
            _II_BUMPS.inc()
            log.note(f"raised the initiation interval to {bumped} after a "
                     f"recurrence failure on {failure.op}")
            if not pinned_allocation:
                # Restart from the minimal allocation at the new II: a wider
                # window needs fewer instances, and that trade is the whole
                # point of the II axis.  Instances added at the old II are
                # dropped; the loop re-adds any that are still needed.
                allocation = minimal_allocation(design, library, spans=spans,
                                                pipeline_ii=bumped)
            continue
        relax(design, library, clock_period, timing_margin, failure,
              variants, allocation, log)
    raise InfeasibleDesignError(
        f"design {design.name!r} still unschedulable after {max_attempts} relaxations"
    )
