"""Slack budgeting (paper Section V, Fig. 7).

Budgeting distributes the sequential slack of the pre-schedule DFG over its
operations by choosing a *speed grade* for each of them from the resource
library's area/delay curve:

1. every operation starts at its **slowest** (cheapest) grade;
2. **negative** aligned slack is repaired by upgrading, one grade at a time,
   the critical operation whose upgrade costs the least area per picosecond
   gained;
3. remaining **positive** slack is then consumed by downgrading operations —
   largest area saving first — as long as the move fits inside the
   operation's own slack (the zero-slack-algorithm safety condition) and the
   recomputed aligned slack stays non-negative.

Slack values within ``margin = margin_fraction * clock_period`` of each other
are treated as equal ("slack binning"), which the paper reports speeds up
convergence with negligible quality impact.

The result maps every operation to a delay, a library variant and the final
timing.  The slack-guided scheduler consumes it as its initial resource
selection (step 0) and again after every scheduled CFG edge (the per-edge
re-budget); the pipelined slack-based flow budgets once, on the cyclic
timed DFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.errors import TimingError
from repro.ir.design import Design
from repro.ir.operations import Operation, OpKind
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.core.analysis_cache import default_cache
from repro.core.delta_slack import CyclicSlackEvaluator, DeltaSlackEvaluator
from repro.core.graphkit import CompactTimedGraph
from repro.core.sequential_slack import TimingResult
from repro.core.timed_dfg import build_timed_dfg
from repro.obs.metrics import counter as _obs_counter

#: Budgeting telemetry (observation only; see repro.obs).
_BUDGET_RUNS = _obs_counter("budgeting.runs")
_BUDGET_ITERATIONS = _obs_counter("budgeting.iterations")

_EPS = 1e-6
_MISSING = object()


@dataclass
class BudgetingResult:
    """Outcome of a slack-budgeting pass."""

    clock_period: float
    margin: float
    delays: Dict[str, float]
    variants: Dict[str, Optional[ResourceVariant]]
    timing: TimingResult
    feasible: bool
    iterations: int
    upgrades: int
    downgrades: int
    frozen: Set[str] = field(default_factory=set)

    def delay_of(self, op_name: str) -> float:
        return self.delays.get(op_name, 0.0)

    def variant_of(self, op_name: str) -> Optional[ResourceVariant]:
        return self.variants.get(op_name)

    def total_variant_area(self) -> float:
        """Sum of the areas of all selected variants (dedicated-resource area).

        This is the pre-sharing area estimate the budgeting step optimises;
        the post-binding area is computed by :mod:`repro.rtl.area`.
        """
        return sum(v.area for v in self.variants.values() if v is not None)

    def grade_histogram(self) -> Dict[int, int]:
        """How many operations ended up on each speed grade."""
        histogram: Dict[int, int] = {}
        for variant in self.variants.values():
            if variant is None:
                continue
            histogram[variant.grade] = histogram.get(variant.grade, 0) + 1
        return histogram


class _BudgetTemplate:
    """Immutable per-(design, library) skeleton of a budgeting state.

    Building a :class:`_BudgetState` used to resolve the resource class, the
    synthesizability and the default grade of every operation on *every*
    ``budget_slack`` call.  All of that is a pure function of (design,
    library), so it is interned once per pair
    (:meth:`repro.core.analysis_cache.AnalysisCache.budget_template`) and
    states start from list copies of the precomputed base vectors.

    Every table is a list on *op indices*: operation ``i`` is ``names[i]``,
    the ``i``-th non-constant operation in design order, which is also node
    ``i`` of the design's timed graph (its operations come first, in that
    order, then their sinks).
    """

    __slots__ = ("names", "index", "classes", "nonsynth", "static_delays",
                 "fastest_delays", "base_variants", "base_delays",
                 "max_grades", "slower_of", "faster_of")

    def __init__(self, design: Design, library: Library):
        ops: List[Operation] = [op for op in design.dfg.operations
                                if op.kind is not OpKind.CONST]
        count = len(ops)
        self.names: Tuple[str, ...] = tuple(op.name for op in ops)
        self.index: Dict[str, int] = {
            name: index for index, name in enumerate(self.names)}
        self.classes: List[Optional[object]] = [None] * count
        self.nonsynth: List[bool] = [False] * count
        # Delay of ops whose delay ignores the variant (const/copy/IO) —
        # mirrors Library.operation_delay's dispatch exactly.
        self.static_delays: List[Optional[float]] = [None] * count
        self.fastest_delays: List[Optional[float]] = [None] * count
        # Every operation at its slowest grade, where budgeting starts (each
        # state overlays its warm start and pinned grades on a copy).
        self.base_variants: List[Optional[ResourceVariant]] = [None] * count
        self.base_delays: List[float] = [0.0] * count
        # Per-op grade-adjacency maps (variant name -> next slower/faster
        # variant, None at the ends), shared per resource class.  One dict
        # lookup replaces ResourceClass.next_slower/next_faster on the step-4
        # candidate scan, the hottest part of the budgeting loop.
        self.slower_of: List[Optional[Dict[str, Optional[ResourceVariant]]]] = \
            [None] * count
        self.faster_of: List[Optional[Dict[str, Optional[ResourceVariant]]]] = \
            [None] * count
        adjacency: Dict[int, tuple] = {}
        max_grades = 1
        for index, op in enumerate(ops):
            if not op.is_synthesizable:
                self.nonsynth[index] = True
                delay = library.operation_delay(op)
                self.static_delays[index] = delay
                self.base_delays[index] = delay
                continue
            resource_class = library.class_for_op(op)
            self.classes[index] = resource_class
            if resource_class.num_grades > max_grades:
                max_grades = resource_class.num_grades
            maps = adjacency.get(id(resource_class))
            if maps is None:
                grades = resource_class.variants
                slower_map = {}
                faster_map = {}
                for position, grade in enumerate(grades):
                    slower_map[grade.name] = (grades[position + 1]
                                              if position + 1 < len(grades)
                                              else None)
                    faster_map[grade.name] = (grades[position - 1]
                                              if position > 0 else None)
                maps = (slower_map, faster_map)
                adjacency[id(resource_class)] = maps
            self.slower_of[index], self.faster_of[index] = maps
            slowest = resource_class.slowest
            self.fastest_delays[index] = resource_class.fastest.delay
            self.base_variants[index] = slowest
            self.base_delays[index] = slowest.delay
        self.max_grades = max_grades

    def check_nodes(self, graph: CompactTimedGraph, design: Design) -> None:
        """Raise :class:`TimingError` unless node ``i`` of ``graph`` is
        operation ``i`` for every op index."""
        if graph.names[:len(self.names)] != self.names:
            raise TimingError(
                f"the timed graph's first nodes are not the operations of "
                f"design {design.name!r} in design order")

    def pinned_delay(self, index: int,
                     variant: Optional[ResourceVariant]) -> float:
        """``Library.operation_delay(op, variant)`` from precomputed parts."""
        static = self.static_delays[index]
        if static is not None:
            return static
        if variant is None:
            return self.fastest_delays[index]
        return variant.delay


class _BudgetState:
    """Mutable per-operation state of budgeting, on the template's op indices.

    ``variants``, ``delays`` and ``pinned`` are lists by op index,
    ``frozen`` the set of op indices a rejected downgrade froze, and
    ``evaluator`` the slack evaluator over the timed graph the loop runs on
    (node ``i`` is operation ``i``).  After a :func:`budget_slack` run the
    state also holds its outcome: ``iterations``, ``upgrades``,
    ``downgrades`` and ``feasible``.

    The per-op precedence is that of resolving each operation on its own:
    a pinned grade wins, non-synthesizable ops are always pinned, and warm
    starts apply to synthesizable ops only.  The slack-guided scheduler
    keeps one state per schedule pass and pins each operation as it is
    placed; the warm start of the next re-budget is then what the last one
    left.
    """

    __slots__ = ("template", "variants", "delays", "pinned", "frozen",
                 "evaluator", "iterations", "upgrades", "downgrades",
                 "feasible")

    def __init__(self, template: _BudgetTemplate,
                 initial_variants: Optional[Mapping[str, ResourceVariant]],
                 pinned: Optional[Mapping[str, ResourceVariant]]):
        self.template = template
        # Start from the interned slowest-grade vectors, then overlay the
        # warm start and the pinned grades.
        self.variants: List[Optional[ResourceVariant]] = list(
            template.base_variants)
        self.delays: List[float] = list(template.base_delays)
        self.pinned: List[bool] = list(template.nonsynth)
        self.frozen: Set[int] = set()
        self.evaluator = None
        self.iterations = self.upgrades = self.downgrades = 0
        self.feasible = False
        index_of = template.index
        if initial_variants:
            nonsynth = template.nonsynth
            for name, variant in initial_variants.items():
                index = index_of.get(name)
                if index is not None and not nonsynth[index]:
                    self.variants[index] = variant
                    self.delays[index] = variant.delay
        if pinned:
            for name, variant in pinned.items():
                index = index_of.get(name)
                if index is not None:
                    self.pin(index, variant)

    def pin(self, index: int, variant: Optional[ResourceVariant]) -> None:
        """Fix operation ``index`` at ``variant`` for every later run."""
        self.variants[index] = variant
        self.delays[index] = self.template.pinned_delay(index, variant)
        self.pinned[index] = True

    def delay_vector(self, num_nodes: int) -> List[float]:
        """The evaluator's delay vector: the op delays as floats, then 0.0
        for every other node (``CompactTimedGraph.delay_vector``'s rule)."""
        vector = list(map(float, self.delays))
        vector.extend([0.0] * (num_nodes - len(vector)))
        return vector


def _run_budget(state: _BudgetState, margin: float) -> None:
    """Steps 3 and 4 of Fig. 7 on ``state`` and its evaluator, in place."""
    template = state.template
    evaluator = state.evaluator
    iteration_budget = 20 * max(len(template.names), 1) * template.max_grades

    iterations = 0
    upgrades = 0
    downgrades = 0

    # Hot-loop locals.  The evaluator mutates its arrival/required lists in
    # place (never rebinds them), so the references stay valid across
    # set_delay/rollback.
    names = template.names
    classes = template.classes
    slower_of = template.slower_of
    faster_of = template.faster_of
    variants = state.variants
    delays = state.delays
    pinned = state.pinned
    frozen = state.frozen = set()
    arrival = evaluator.arrival
    required = evaluator.required

    # ---- step 3 of Fig. 7: repair negative aligned slack by speeding up ---------
    while evaluator.worst_slack() < -_EPS and iterations < iteration_budget:
        # Candidates: every operation still violating timing (binned to the
        # worst value first, then any violator — alignment effects can give
        # the true culprit a slightly less negative slack than the worst op,
        # e.g. when the worst op is an un-upgradable I/O operation).
        critical = [index for index in evaluator.critical_indices(margin)
                    if not pinned[index] and index not in frozen]
        violators = [index for index in evaluator.violating_indices(-_EPS)
                     if not pinned[index] and index not in frozen]

        def cheapest_upgrade(indices):
            best: Optional[Tuple[float, int, ResourceVariant]] = None
            for index in indices:
                variant = variants[index]
                if variant is None:
                    continue
                faster = faster_of[index].get(variant.name, _MISSING)
                if faster is _MISSING:
                    faster = classes[index].next_faster(variant)
                if faster is None:
                    continue
                gain = variant.delay - faster.delay
                if gain <= _EPS:
                    continue
                cost = (faster.area - variant.area) / gain
                if best is None or cost < best[0]:
                    best = (cost, index, faster)
            return best

        best_choice = cheapest_upgrade(critical) or cheapest_upgrade(violators)
        if best_choice is None:
            break  # nothing left to speed up: infeasible at this clock period
        _, index, faster = best_choice
        variants[index] = faster
        delays[index] = faster.delay
        evaluator.set_delay(index, faster.delay)
        upgrades += 1
        iterations += 1

    # ---- step 4 of Fig. 7: distribute positive slack by slowing down ------------
    # A still-diverged cyclic evaluator has no meaningful per-op slack to
    # distribute: skip the downgrade loop and report the infeasible II.
    skip_downgrades = bool(getattr(evaluator, "diverged", False))
    feasible_baseline = evaluator.worst_slack() >= -_EPS
    margin_eps = margin + _EPS
    movable = [index for index, flag in enumerate(pinned) if not flag]
    while not skip_downgrades and iterations < iteration_budget:
        candidates: List[Tuple[float, float, int, ResourceVariant]] = []
        for index in movable:
            variant = variants[index]
            if variant is None or index in frozen:
                continue
            slower = slower_of[index].get(variant.name, _MISSING)
            if slower is _MISSING:
                slower = classes[index].next_slower(variant)
            if slower is None:
                continue
            slack = required[index] - arrival[index]
            if slack <= margin_eps:
                continue
            delay_increase = slower.delay - variant.delay
            if delay_increase > slack + _EPS:
                continue
            saving = variant.area - slower.area
            if saving <= _EPS:
                continue
            candidates.append((saving, slack, index, slower))
        if not candidates:
            break
        candidates.sort(key=lambda item: (-item[0], -item[1], names[item[2]]))
        accepted = False
        accepted_worst = evaluator.worst_slack()
        for saving, slack, index, slower in candidates:
            previous = variants[index]
            variants[index] = slower
            delays[index] = slower.delay
            iterations += 1
            evaluator.begin_trial()
            evaluator.set_delay(index, slower.delay)
            trial_worst = evaluator.worst_slack()
            worst_ok = (trial_worst >= -_EPS) if feasible_baseline else (
                trial_worst >= accepted_worst - _EPS)
            if worst_ok:
                evaluator.commit()
                downgrades += 1
                accepted = True
                break
            evaluator.rollback()
            variants[index] = previous
            delays[index] = previous.delay
            frozen.add(index)
        if not accepted:
            break

    state.iterations = iterations
    state.upgrades = upgrades
    state.downgrades = downgrades
    state.feasible = evaluator.worst_slack() >= -_EPS
    default_cache().record_delta(evaluator.updates)
    _BUDGET_RUNS.inc()
    _BUDGET_ITERATIONS.inc(iterations)


def budget_slack(
    design: Design,
    library: Library,
    clock_period: float,
    margin_fraction: float = 0.05,
    graph: Optional[CompactTimedGraph] = None,
    initial_variants: Optional[Mapping[str, ResourceVariant]] = None,
    pinned_variants: Optional[Mapping[str, ResourceVariant]] = None,
    state: Optional[_BudgetState] = None,
) -> Union[BudgetingResult, _BudgetState]:
    """Run the slack-budgeting algorithm of Fig. 7 on ``design``.

    Budgeting runs on aligned slack (clock-boundary aware), as the paper's
    algorithm does.  Operations without a warm start begin at their slowest
    grade, and the loop stops after ``20 * num_ops * max_grades`` iterations
    at the latest.

    Parameters
    ----------
    design, library, clock_period:
        The design, the resource library and the target clock period (ps).
    margin_fraction:
        Slack-binning margin as a fraction of the clock period (paper: 5 %).
    graph:
        The compact timed graph to budget on (see
        :mod:`repro.core.graphkit`).  Acyclic graphs run on a
        :class:`~repro.core.delta_slack.DeltaSlackEvaluator`, cyclic
        (modulo-II) ones on a
        :class:`~repro.core.delta_slack.CyclicSlackEvaluator`.  Without one,
        ``build_timed_dfg(design).compact()`` is used.  The slack-guided
        scheduler passes its design's graph for the step-0 budget.
    initial_variants:
        Warm-start grades.
    pinned_variants:
        Grades that must not change.
    state:
        A :class:`_BudgetState` whose ``evaluator`` the caller has seeded:
        the slack-guided scheduler's per-edge re-budget, which keeps one
        state per schedule pass on op indices.  The loop then runs on that
        state in place and returns it, holding the outcome (``variants``,
        ``feasible``, ``iterations`` ...); ``graph``, ``initial_variants``
        and ``pinned_variants`` are not read, and no
        :class:`BudgetingResult` is exported.

    Each call records its evaluator's incremental updates on
    :func:`repro.core.analysis_cache.default_cache` (the
    ``delta_evaluators`` / ``delta_updates`` tallies of ``cache_stats()``).
    """
    if clock_period <= 0:
        raise TimingError("clock period must be positive")
    margin = abs(margin_fraction) * clock_period
    if state is not None:
        _run_budget(state, margin)
        return state
    if graph is None:
        graph = build_timed_dfg(design).compact()

    template = default_cache().budget_template(design, library)
    template.check_nodes(graph, design)
    names = template.names
    state = _BudgetState(template, initial_variants, pinned_variants)
    # Cyclic (modulo-II) timed graphs get the full-recompute evaluator: its
    # interface is identical, so the loop is shared.
    evaluator_class = (CyclicSlackEvaluator if graph.cyclic
                       else DeltaSlackEvaluator)
    state.evaluator = evaluator_class(
        graph, state.delay_vector(graph.num_nodes), clock_period,
        aligned=True)
    _run_budget(state, margin)

    return BudgetingResult(
        clock_period=clock_period,
        margin=margin,
        delays=dict(zip(names, state.delays)),
        variants=dict(zip(names, state.variants)),
        timing=state.evaluator.export(),
        feasible=state.feasible,
        iterations=state.iterations,
        upgrades=state.upgrades,
        downgrades=state.downgrades,
        frozen={names[index] for index in state.frozen},
    )
