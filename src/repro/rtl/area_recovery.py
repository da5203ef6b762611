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

* :func:`recover_area` (the default) runs on the incremental timing engine
  (:class:`repro.rtl.incremental_timing.IncrementalStateTiming`): each trial
  downgrade recomputes only the states the instance participates in, every
  *independent* downgrade is accepted within one round (instances are
  independent when they live in different connected components of the
  state-sharing graph), and trial failures are memoized — slacks only shrink
  as delays grow, so a failed (instance, grade) trial can never succeed
  later.  Complexity drops from O(rounds * instances * states) to roughly
  O(instances * touched-states).
* :func:`recover_area_reference` is the original one-accept-per-round loop
  with a full :func:`analyze_state_timing` per trial.  It is kept as the
  executable specification: the incremental pass must produce identical
  downgrades, areas and timing (asserted in the test suite and guarded by
  the golden-metrics benchmark check).

Why "independent" means *connected components* rather than pairwise-disjoint
state sets: accepting a downgrade only perturbs slack inside the instance's
own states, so the greedy process decomposes exactly along the connected
components of the graph whose vertices are instances and whose edges link
instances sharing a state.  Accepting the best candidate of *each* component
per round reorders acceptances only across components, which cannot change
the outcome.  Accepting two pairwise-disjoint candidates of the *same*
component, however, can: a third instance overlapping both could have been
accepted between them by the one-at-a-time reference, changing which of the
two survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.lib.resource import ResourceVariant
from repro.rtl.datapath import Datapath
from repro.rtl.incremental_timing import IncrementalStateTiming
from repro.rtl.timing import StateTimingReport, analyze_state_timing

_EPS = 1e-6


@dataclass
class AreaRecoveryResult:
    """Summary of an area-recovery run."""

    downgrades: int
    area_before: float
    area_after: float
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


def _instance_components(datapath: Datapath) -> Dict[str, int]:
    """Connected components of the instance state-sharing graph.

    Two instances are connected when they participate in a common state;
    downgrades in different components never interact through timing.
    """
    parent: Dict[str, str] = {}

    def find(name: str) -> str:
        root = name
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:
            parent[name], name = root, parent[name]
        return root

    edge_owner: Dict[str, str] = {}
    for instance in datapath.binding.instances:
        parent[instance.name] = instance.name
        for edge in datapath.instance_edges(instance.name):
            owner = edge_owner.setdefault(edge, instance.name)
            if owner != instance.name:
                parent[find(owner)] = find(instance.name)

    labels: Dict[str, int] = {}
    components: Dict[str, int] = {}
    for instance in datapath.binding.instances:
        root = find(instance.name)
        components[instance.name] = labels.setdefault(root, len(labels))
    return components


def recover_area(datapath: Datapath) -> AreaRecoveryResult:
    """Downsize bound instances using within-state slack only (in place).

    Incremental implementation: see the module docstring for the policy and
    the equivalence argument against :func:`recover_area_reference`.  Every
    round but the last accepts a one-grade downgrade, and nothing upgrades,
    so there are at most 1 + Σ (grades − 1) over the instances rounds.
    """
    area_before = datapath.binding.total_fu_area()
    downgrades = 0
    changed: List[str] = []

    analyzer = IncrementalStateTiming(datapath)
    if analyzer.report.meets_timing():
        components = _instance_components(datapath)
        failed_trials: Set[Tuple[str, str]] = set()
        while True:
            candidates = _downgrade_candidates(datapath, analyzer.report)
            touched: Set[int] = set()
            accepted_any = False
            for saving, instance_name, slower in candidates:
                component = components[instance_name]
                if component in touched:
                    continue  # interacts with an acceptance of this round
                if (instance_name, slower.name) in failed_trials:
                    continue  # slack only shrinks; the trial cannot pass now
                instance = datapath.binding.instance_by_name(instance_name)
                edges = analyzer.instance_edges(instance_name)
                saved = analyzer.snapshot(edges)
                previous = instance.variant
                instance.variant = slower
                analyzer.recompute_edges(edges)
                if analyzer.edges_meet_timing(edges):
                    downgrades += 1
                    if instance_name not in changed:
                        changed.append(instance_name)
                    touched.add(component)
                    accepted_any = True
                else:
                    instance.variant = previous
                    analyzer.restore(saved)
                    failed_trials.add((instance_name, slower.name))
            if not accepted_any:
                break

    return AreaRecoveryResult(
        downgrades=downgrades,
        area_before=area_before,
        area_after=datapath.binding.total_fu_area(),
        changed_instances=changed,
    )


def recover_area_reference(datapath: Datapath) -> AreaRecoveryResult:
    """The original full-recompute pass (executable specification).

    Accepts at most one downgrade per round and re-runs a complete
    :func:`analyze_state_timing` for every round and every trial.  Kept so
    the equivalence of the incremental pass stays testable; production code
    should call :func:`recover_area`, whose bound on rounds holds here too.
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
        changed_instances=changed,
    )


def _kind_from_key(kind_value: str):
    from repro.ir.operations import OpKind

    return OpKind(kind_value)
