"""Conventional (within-state) area recovery.

This is the RTL-synthesis-style pass the paper uses as its baseline: after
scheduling and binding, functional-unit instances whose operations have
combinational slack *inside their own control step* are downsized to slower,
cheaper grades.  Because it only sees one state at a time it cannot move an
operation to a different cycle to create slack — which is exactly the
limitation the slack-based flow removes (paper Section II).

The pass is greedy: instances are repeatedly downgraded one speed grade at a
time, largest area saving first, as long as every state they participate in
still meets the clock period.

Two implementations of the same greedy policy live here:

* :func:`recover_area` (the default) makes one pass over a heap of
  candidates on the incremental timing engine
  (:class:`repro.rtl.incremental_timing.IncrementalStateTiming`): each trial
  downgrade recomputes only the states the instance participates in, and a
  rejected trial is undone by reverting the grade and recomputing the same
  states.
* :func:`recover_area_reference` is the original one-accept-per-round loop
  with a full :func:`analyze_state_timing` per trial.  It is kept as the
  executable specification: the heap pass accepts exactly its downgrades,
  in the same order, and ends on the same timing report (asserted in the
  test suite and guarded by the golden-metrics benchmark check).

Why one heap pass is exact.  The heap holds ``(-saving, instance name, next
slower grade)``, keyed like the reference's sort, with one entry per
instance that has operations and a profitable next grade.  A downgrade only
lengthens delays, and slack only shrinks as delays grow, so an entry that
fails the slack filter or its trial against the current report fails
against every later one: it is dropped for good.  Popping in key order
therefore finds what the reference finds round after round: the first
entry that passes is the reference's pick, since every entry before it is
dead, and the accepted instance's next grade re-enters at its own key.  The
accept sequence, and with it ``changed_instances``, equals the
reference's.

Bound: each pop removes one entry, and each accept pushes at most one, for
the instance's next grade.  So the loop pops at most instances + Σ (grades −
1) times, the sum taken over the instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Tuple

from repro.bind.binding import FUInstance
from repro.lib.resource import ResourceClass, ResourceVariant
from repro.rtl.datapath import Datapath
from repro.rtl.incremental_timing import IncrementalStateTiming
from repro.rtl.timing import StateTimingReport, analyze_state_timing

_EPS = 1e-6

#: A heap entry: ``(-saving, instance name, next slower grade)``.
_Candidate = Tuple[float, str, ResourceVariant]


@dataclass
class AreaRecoveryResult:
    """Summary of an area-recovery run.

    ``timing`` is the state-timing report of the datapath as the pass left
    it, so a caller need not analyse it again.
    """

    downgrades: int
    area_before: float
    area_after: float
    timing: StateTimingReport
    changed_instances: List[str] = field(default_factory=list)

    @property
    def area_saved(self) -> float:
        return self.area_before - self.area_after


def _downgrade_candidates(
    datapath: Datapath,
    timing: StateTimingReport,
) -> List[Tuple[float, str, ResourceVariant]]:
    """Profitable, slack-covered one-grade downgrades, best saving first.

    Instances bound to no operations are skipped outright: they appear in no
    state, so the within-state report carries no timing evidence about them,
    and a downgrade justified by the former ``min(..., default=0.0)`` slack
    would rest on nothing.  (Complete bindings never produce such instances;
    the guard protects hand-built ones.)
    """
    library = datapath.library
    candidates: List[Tuple[float, str, ResourceVariant]] = []
    for instance in datapath.binding.instances:
        if not instance.ops:
            continue
        resource_class = library.class_for(
            _kind_from_key(instance.class_key[0]), instance.class_key[1]
        )
        slower = resource_class.next_slower(instance.variant)
        if slower is None:
            continue
        saving = instance.variant.area - slower.area
        if saving <= _EPS:
            continue
        delay_increase = slower.delay - instance.variant.delay
        worst_op_slack = min(
            timing.op_slack.get(op, 0.0) for op in instance.ops
        )
        if delay_increase > worst_op_slack + _EPS:
            continue
        candidates.append((saving, instance.name, slower))
    candidates.sort(key=lambda item: (-item[0], item[1]))
    return candidates


def _push_next_grade(heap: List[_Candidate], instance: FUInstance,
                     resource_class: ResourceClass) -> None:
    """Push ``instance``'s next slower grade when it saves area."""
    slower = resource_class.next_slower(instance.variant)
    if slower is None:
        return
    saving = instance.variant.area - slower.area
    if saving > _EPS:
        heappush(heap, (-saving, instance.name, slower))


def recover_area(datapath: Datapath) -> AreaRecoveryResult:
    """Downsize bound instances using within-state slack only (in place).

    One pass over a heap of candidates: see the module docstring for the
    policy, why the pass accepts exactly the downgrades of
    :func:`recover_area_reference` in the same order, and the bound on its
    pops.  Instances bound to no operations get no entry, as in
    :func:`_downgrade_candidates`.
    """
    area_before = datapath.binding.total_fu_area()
    downgrades = 0
    changed: List[str] = []

    analyzer = IncrementalStateTiming(datapath)
    report = analyzer.report
    if report.meets_timing():
        library = datapath.library
        op_slack = report.op_slack
        instances: Dict[str, Tuple[FUInstance, ResourceClass]] = {}
        heap: List[_Candidate] = []
        for instance in datapath.binding.instances:
            if not instance.ops:
                continue
            resource_class = library.class_for(
                _kind_from_key(instance.class_key[0]), instance.class_key[1])
            instances[instance.name] = (instance, resource_class)
            _push_next_grade(heap, instance, resource_class)
        while heap:
            _, name, slower = heappop(heap)
            instance, resource_class = instances[name]
            previous = instance.variant
            worst_op_slack = min(op_slack.get(op, 0.0) for op in instance.ops)
            if slower.delay - previous.delay > worst_op_slack + _EPS:
                continue  # slack only shrinks: it cannot fit later either
            edges = analyzer.instance_edges(name)
            instance.variant = slower
            analyzer.recompute_edges(edges)
            if analyzer.edges_meet_timing(edges):
                downgrades += 1
                if name not in changed:
                    changed.append(name)
                _push_next_grade(heap, instance, resource_class)
            else:
                instance.variant = previous
                analyzer.recompute_edges(edges)

    return AreaRecoveryResult(
        downgrades=downgrades,
        area_before=area_before,
        area_after=datapath.binding.total_fu_area(),
        timing=report,
        changed_instances=changed,
    )


def recover_area_reference(datapath: Datapath) -> AreaRecoveryResult:
    """The original full-recompute pass (executable specification).

    Accepts at most one downgrade per round and re-runs a complete
    :func:`analyze_state_timing` for every round and every trial.  Kept so
    the equivalence of the heap pass stays testable; production code should
    call :func:`recover_area`.  Every round but the last accepts a one-grade
    downgrade, and nothing upgrades, so there are at most 1 + Σ (grades − 1)
    over the instances rounds.
    """
    area_before = datapath.binding.total_fu_area()
    downgrades = 0
    changed: List[str] = []

    while True:
        timing = analyze_state_timing(datapath)
        if not timing.meets_timing():
            break  # never make a failing implementation worse
        candidates = _downgrade_candidates(datapath, timing)
        if not candidates:
            break
        accepted = False
        for saving, instance_name, slower in candidates:
            instance = datapath.binding.instance_by_name(instance_name)
            previous = instance.variant
            instance.variant = slower
            trial = analyze_state_timing(datapath)
            if trial.meets_timing():
                downgrades += 1
                if instance_name not in changed:
                    changed.append(instance_name)
                accepted = True
                break
            instance.variant = previous
        if not accepted:
            break

    return AreaRecoveryResult(
        downgrades=downgrades,
        area_before=area_before,
        area_after=datapath.binding.total_fu_area(),
        timing=timing,
        changed_instances=changed,
    )


def _kind_from_key(kind_value: str):
    from repro.ir.operations import OpKind

    return OpKind(kind_value)
