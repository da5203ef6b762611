"""The scheduling relaxation loop ("expert system" of the paper's Fig. 8).

Both flows run one loop, :func:`_relax_until_scheduled`.  It repeats a
schedule pass until one succeeds, and after each failed pass it relaxes the
problem according to the structured failure:

* a **resource** failure adds one instance of the bottleneck class, while
  it has fewer instances than operations (the dedicated allocation);
* a **timing** failure upgrades the speed grade of the failing operation (or,
  if it is already at its fastest grade, of the slowest upgradable operation
  chained before it on that edge);
* an **unreachable** failure (a predecessor could never be scheduled) is
  treated like a resource failure on the predecessor's class when possible;
* under the modulo engine only, a **recurrence** failure (or a repeat of the
  previous failure, or an add past the bound) raises the initiation
  interval by one.

The flows differ only in the pass they hand it: :func:`schedule_with_relaxation`
passes one list- or modulo-scheduling call, and
:class:`repro.core.slack_scheduler.SlackScheduler` its re-budgeting pass,
which keeps the grades :func:`relax` upgrades locked (in the conventional
flow, locks would undo the on-the-fly upgrades).  When no move is left, an
:class:`InfeasibleDesignError` naming the bound that was hit is raised — the
paper's "design is overconstrained" outcome.  The loop never changes the
CFG: more states take a design re-elaborated with a larger latency, which
the DSE harness builds explicitly.  Each pass starts with a deadline
checkpoint (:func:`repro.core.deadline.check_deadline`).

Tracing (:mod:`repro.obs.trace`) records one ``sched.attempt`` span per
pass, labelled with the flow, the attempt number and, when the pass fails,
the failure reason and the move that followed it (``move``, the
:class:`RelaxationLog` message).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import InfeasibleDesignError
from repro.ir.design import Design
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.core.analysis_cache import default_cache
from repro.core.deadline import check_deadline
from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans
from repro.obs.metrics import counter as _obs_counter
from repro.obs.trace import enclosing_attr, span as _obs_span
from repro.sched.allocation import Allocation, ClassKey, minimal_allocation
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


class _AtClassBound(InfeasibleDesignError):
    """No instance can be added: the class has one per operation already."""


def _add_instance(design: Design, library: Library, allocation: Allocation,
                  class_key: ClassKey, log: RelaxationLog, why: str) -> None:
    operations = default_cache().budget_template(
        design, library).class_counts.get(class_key, 0)
    if allocation.limit(class_key) >= operations:
        raise _AtClassBound(
            f"{class_key[0]}/{class_key[1]} at its bound of {operations} "
            f"instances (one per operation)")
    allocation.add(class_key)
    log.resources_added.append(class_key)
    _RESOURCES_ADDED.inc()
    log.note(f"added one {class_key[0]}/{class_key[1]} instance {why}")


def relax(
    design: Design,
    library: Library,
    clock_period: float,
    failure,
    variants: Dict[str, Optional[ResourceVariant]],
    allocation: Allocation,
    log: RelaxationLog,
) -> Optional[str]:
    """Apply the expert system's move (module docstring) for ``failure``.

    Updates ``variants`` and ``allocation`` in place and returns the op
    whose grade was upgraded (``None`` when an instance was added).  Raises
    :class:`InfeasibleDesignError` when no move applies, including an op
    whose fastest grade alone exceeds the clock budget and an add to a
    class with one instance per operation already.
    """
    if failure.reason == "resource" and failure.class_key is not None:
        _add_instance(design, library, allocation, failure.class_key, log,
                      f"for {failure.op}")
        return None
    if failure.reason == "timing":
        failing_op = design.dfg.op(failure.op)
        alone_delay = (library.class_for_op(failing_op).min_delay
                       if failing_op.is_synthesizable
                       else library.operation_delay(failing_op))
        if alone_delay > clock_period + 1e-6:
            raise InfeasibleDesignError(
                f"operation {failure.op!r} needs {alone_delay:.0f} ps even at "
                f"its fastest grade, which exceeds the {clock_period:.0f} ps "
                f"budget; the clock period is infeasible"
            )
        if upgrade_for_timing(design, library, variants, failure, log):
            return log.upgrades[-1]
        bottleneck = failure.blocking_class_key or failure.class_key
        if bottleneck is not None:
            # Every operation in the chain is already at its fastest grade:
            # the chain was compressed because earlier states ran out of
            # resources and deferred the chain head.  Adding an instance
            # of that bottleneck class lets it schedule earlier.
            _add_instance(design, library, allocation, bottleneck, log,
                          f"after unrepairable timing failure on {failure.op}")
            return None
        raise InfeasibleDesignError(
            f"timing failure on {failure.op!r} cannot be repaired: every "
            f"operation in its chain is already at its fastest grade "
            f"({failure.detail})"
        )
    if failure.reason == "unreachable" and failure.class_key is not None:
        _add_instance(design, library, allocation, failure.class_key, log,
                      f"after unreachable failure on {failure.op}")
        return None
    raise InfeasibleDesignError(
        f"no relaxation can make the design schedulable: {failure}"
    )


def _relax_until_scheduled(
    design: Design,
    library: Library,
    clock_period: float,
    variant_map: Mapping[str, Optional[ResourceVariant]],
    spans: OperationSpans,
    pipeline_ii: Optional[int],
    schedule_pass: Callable[..., SchedulingAttempt],
    flow: object,
    modulo: bool = False,
    locked: Optional[Dict[str, ResourceVariant]] = None,
) -> Tuple[Schedule, Allocation, Dict[str, Optional[ResourceVariant]], RelaxationLog]:
    """The relaxation loop both flows run (module docstring).

    Starts from a copy of ``variant_map`` and the minimal allocation at
    ``pipeline_ii``, and calls ``schedule_pass(variants, allocation, ii)``
    until a pass succeeds or no move is left, one ``sched.attempt`` span
    labelled ``flow`` each.  Only with ``modulo`` may a move bump the II.
    ``locked``, when given, receives each grade :func:`relax` upgrades.
    Returns the schedule, the final allocation and grades, and the log.

    The loop ends, because each failed pass makes one move and each kind
    of move is finite:

    * an upgrade raises one operation's grade, and nothing lowers it again
      (the slack flow locks it in ``locked``, which its re-budgeting pins):
      at most Σ (grades − 1) over the operations;
    * an add keeps its class at or below its operation count: at most
      Σ (ops − minimal instances) over the classes, per II;
    * a bump raises the II, which stays at most the state count.

    So a block run makes at most 1 + Σ (grades − 1) + Σ (ops − minimal
    instances) passes; under the modulo engine the add term counts once per
    II tried, and each bump adds one pass.
    """
    allocation = minimal_allocation(design, library, spans=spans,
                                    pipeline_ii=pipeline_ii)
    variants: Dict[str, Optional[ResourceVariant]] = dict(variant_map)
    log = RelaxationLog()
    last_signature = None

    while True:
        check_deadline()
        log.count_attempt()
        with _obs_span("sched.attempt", flow=flow,
                       attempt=log.attempts) as attempt_span:
            attempt = schedule_pass(variants, allocation, pipeline_ii)
            if not attempt.success:
                attempt_span.set(failure=attempt.failure.reason)
        if attempt.success:
            log.final_ii = attempt.schedule.pipeline_ii
            return attempt.schedule, allocation, variants, log
        failure = attempt.failure
        # Under the modulo engine, a repeat of the *identical* failure means
        # the last move made no progress: a carried-dependence clamp, not the
        # reported shortage, squeezed the chain, so the II is relaxed.  The
        # block engine has no such clamp and may repeat a failure while
        # upgrading different ancestor-cone ops (Case 2).
        signature = (failure.op, failure.edge, failure.reason,
                     failure.class_key, failure.blocking_class_key,
                     failure.detail)
        bump = modulo and (failure.reason == "recurrence"
                           or signature == last_signature)
        full = None
        if not bump:
            try:
                upgraded = relax(design, library, clock_period, failure,
                                 variants, allocation, log)
            except _AtClassBound as error:
                if not modulo:
                    raise InfeasibleDesignError(
                        f"design {design.name!r} is overconstrained with "
                        f"{error}: {failure}") from None
                bump, full, upgraded = True, error, None
            if locked is not None and upgraded is not None:
                locked[upgraded] = variants[upgraded]
        last_signature = None if bump else signature
        if bump:
            bumped = (pipeline_ii or design.pipeline_ii or 1) + 1
            max_ii = max(len(spans.latency.forward_edge_names), 1)
            if failure.reason == "recurrence":
                stall = f"recurrences of design {design.name!r} do not fit"
                cause = f"recurrence failure on {failure.op}"
            elif full is not None:
                stall = f"design {design.name!r} stalls with {full}"
                cause = f"{failure.reason} failure on {failure.op} with {full}"
            else:
                stall = (f"design {design.name!r} stalls on a repeated "
                         f"{failure.reason} failure")
                cause = f"repeated {failure.reason} failure on {failure.op}"
            if bumped > max_ii:
                raise InfeasibleDesignError(
                    f"{stall} even at II={max_ii} (no iteration overlap "
                    f"left): {failure}")
            pipeline_ii = bumped
            log.ii_bumps.append(bumped)
            _II_BUMPS.inc()
            log.note(f"raised the initiation interval to {bumped} after a "
                     f"{cause}")
            # Restart from the minimal allocation at the new II: a wider
            # window needs fewer instances, and that trade is the whole
            # point of the II axis.  Instances added at the old II are
            # dropped; the loop re-adds any that are still needed.
            allocation = minimal_allocation(design, library, spans=spans,
                                            pipeline_ii=bumped)
        attempt_span.set(move=log.messages[-1])


def schedule_with_relaxation(
    design: Design,
    library: Library,
    clock_period: float,
    variant_map: Mapping[str, Optional[ResourceVariant]],
    spans: Optional[OperationSpans] = None,
    latency: Optional[LatencyAnalysis] = None,
    priority: Optional[PriorityFn] = None,
    pipeline_ii: Optional[int] = None,
    scheduler=None,
) -> Tuple[Schedule, Allocation, Dict[str, Optional[ResourceVariant]], RelaxationLog]:
    """Schedule ``design``, relaxing resources/grades until a pass succeeds.

    ``scheduler`` selects the engine — any callable with
    :func:`try_list_schedule`'s signature; any engine but the list scheduler
    is taken to be the modulo engine
    (:func:`repro.sched.modulo_scheduler.try_modulo_schedule`, which the
    pipelined flows pass).  Its moves include *bumping the initiation
    interval* by one, which recomputes the minimal allocation at the new II
    (slots are capped at II, so a larger II may need fewer instances); the
    II never grows beyond the design's state count.  Every pass upgrades a
    grade on the fly when an operation's chained delay does not fit on the
    last edge of its span.  :func:`_relax_until_scheduled` bounds the passes.
    """
    latency = latency or LatencyAnalysis(design.cfg)
    spans = spans or OperationSpans(design, latency=latency)
    engine = scheduler or try_list_schedule

    def schedule_pass(variants, allocation, ii) -> SchedulingAttempt:
        return engine(design, library, clock_period, variants, allocation,
                      spans=spans, latency=latency, priority=priority,
                      pipeline_ii=ii)

    return _relax_until_scheduled(
        design, library, clock_period, variant_map, spans, pipeline_ii,
        schedule_pass, enclosing_attr("flow"),
        modulo=engine is not try_list_schedule,
    )
