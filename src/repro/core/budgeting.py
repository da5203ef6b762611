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

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import TimingError
from repro.ir.design import Design
from repro.ir.operations import Operation, OpKind
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
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
    ``budget_slack`` call — and the slack-guided scheduler re-budgets after
    every scheduled edge, thousands of times per design point.  All of that
    is a pure function of (design, library), so it is interned once here and
    per-call states start from dict copies of the precomputed base maps.
    """

    __slots__ = ("ops", "classes", "nonsynth", "static_delays",
                 "fastest_delays", "base_variants", "base_delays",
                 "max_grades", "slower_of", "faster_of")

    def __init__(self, design: Design, library: Library):
        self.ops: Dict[str, Operation] = {}
        self.classes: Dict[str, Optional[object]] = {}
        self.nonsynth: Set[str] = set()
        # Delay of ops whose delay ignores the variant (const/copy/IO) —
        # mirrors Library.operation_delay's dispatch exactly.
        self.static_delays: Dict[str, float] = {}
        self.fastest_delays: Dict[str, float] = {}
        # Every operation at its slowest grade, where budgeting starts (each
        # call overlays its warm start and pinned grades on a copy).
        self.base_variants: Dict[str, Optional[ResourceVariant]] = {}
        self.base_delays: Dict[str, float] = {}
        # Per-op grade-adjacency maps (variant name -> next slower/faster
        # variant, None at the ends), shared per resource class.  One dict
        # lookup replaces ResourceClass.next_slower/next_faster on the step-4
        # candidate scan, the hottest part of the budgeting loop.
        self.slower_of: Dict[str, Dict[str, Optional[ResourceVariant]]] = {}
        self.faster_of: Dict[str, Dict[str, Optional[ResourceVariant]]] = {}
        adjacency: Dict[int, tuple] = {}
        max_grades = 1
        for op in design.dfg.operations:
            if op.kind is OpKind.CONST:
                continue
            name = op.name
            self.ops[name] = op
            if not op.is_synthesizable:
                self.classes[name] = None
                self.nonsynth.add(name)
                delay = library.operation_delay(op)
                self.static_delays[name] = delay
                self.base_variants[name] = None
                self.base_delays[name] = delay
                continue
            resource_class = library.class_for_op(op)
            self.classes[name] = resource_class
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
            self.slower_of[name], self.faster_of[name] = maps
            slowest = resource_class.slowest
            self.fastest_delays[name] = resource_class.fastest.delay
            self.base_variants[name] = slowest
            self.base_delays[name] = slowest.delay
        self.max_grades = max_grades

    def pinned_delay(self, name: str,
                     variant: Optional[ResourceVariant]) -> float:
        """``Library.operation_delay(op, variant)`` from precomputed parts."""
        static = self.static_delays.get(name)
        if static is not None:
            return static
        if variant is None:
            return self.fastest_delays[name]
        return variant.delay


_TEMPLATE_LOCK = threading.Lock()
_TEMPLATES: "OrderedDict" = OrderedDict()
_MAX_TEMPLATES = 128


def _budget_template(design: Design, library: Library) -> _BudgetTemplate:
    """The interned :class:`_BudgetTemplate` of ``(design, library)``.

    Keyed by object identity tokens: the flows treat designs and libraries
    as structurally immutable after first analysis (the same contract the
    analysis cache and ``TimedDFG.compact`` already rely on).
    """
    from repro.core.analysis_cache import _object_token

    key = (_object_token(design), _object_token(library))
    with _TEMPLATE_LOCK:
        template = _TEMPLATES.get(key)
        if template is not None:
            _TEMPLATES.move_to_end(key)
            return template
    template = _BudgetTemplate(design, library)
    with _TEMPLATE_LOCK:
        _TEMPLATES[key] = template
        _TEMPLATES.move_to_end(key)
        while len(_TEMPLATES) > _MAX_TEMPLATES:
            _TEMPLATES.popitem(last=False)
    return template


class _BudgetState:
    """Mutable per-operation state during budgeting."""

    __slots__ = ("template", "delays", "variants", "pinned", "frozen",
                 "ops", "classes")

    def __init__(self, design: Design, library: Library,
                 initial_variants: Optional[Mapping[str, ResourceVariant]],
                 pinned: Optional[Mapping[str, ResourceVariant]]):
        template = _budget_template(design, library)
        self.template = template
        self.ops = template.ops
        self.classes = template.classes
        self.frozen: Set[str] = set()
        # Start from the interned slowest-grade maps, then overlay the warm
        # start and the pinned grades — same per-op precedence as resolving
        # each operation individually (pinned wins, non-synthesizable ops
        # are always pinned, warm starts apply to synthesizable ops only).
        self.variants: Dict[str, Optional[ResourceVariant]] = dict(
            template.base_variants)
        self.delays: Dict[str, float] = dict(template.base_delays)
        self.pinned: Set[str] = set(template.nonsynth)
        if initial_variants:
            ops = template.ops
            nonsynth = template.nonsynth
            for name, variant in initial_variants.items():
                if name in ops and name not in nonsynth:
                    self.variants[name] = variant
                    self.delays[name] = variant.delay
        if pinned:
            ops = template.ops
            for name, variant in pinned.items():
                if name in ops:
                    self.variants[name] = variant
                    self.delays[name] = template.pinned_delay(name, variant)
                    self.pinned.add(name)

    def set_variant(self, name: str, variant: ResourceVariant) -> None:
        self.variants[name] = variant
        self.delays[name] = variant.delay

    def resource_class(self, name: str):
        return self.classes[name]

    def max_grades(self) -> int:
        return self.template.max_grades


def budget_slack(
    design: Design,
    library: Library,
    clock_period: float,
    margin_fraction: float = 0.05,
    graph: Optional[CompactTimedGraph] = None,
    initial_variants: Optional[Mapping[str, ResourceVariant]] = None,
    pinned_variants: Optional[Mapping[str, ResourceVariant]] = None,
    cache=None,
) -> BudgetingResult:
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
        scheduler passes its design's graph for the step-0 budget and a
        cached reweighted graph for every per-edge re-budget.
    initial_variants:
        Warm-start grades (used when re-budgeting during scheduling).
    pinned_variants:
        Grades that must not change (already-scheduled operations).
    cache:
        Optional :class:`repro.core.analysis_cache.AnalysisCache` (default:
        the process-wide cache).  The slack recomputations themselves now
        run on an in-call :class:`repro.core.delta_slack.DeltaSlackEvaluator`
        — one full kernel pass, then single-delay incremental updates — so
        the cache only collects the delta-evaluation counters that the
        sweep-session stats report.
    """
    if clock_period <= 0:
        raise TimingError("clock period must be positive")
    if cache is None:
        from repro.core.analysis_cache import default_cache

        cache = default_cache()
    if graph is None:
        graph = build_timed_dfg(design).compact()
    margin = abs(margin_fraction) * clock_period

    state = _BudgetState(design, library, initial_variants, pinned_variants)
    iteration_budget = 20 * max(len(state.ops), 1) * state.max_grades()

    iterations = 0
    upgrades = 0
    downgrades = 0

    # Cyclic (modulo-II) timed graphs get the full-recompute evaluator: its
    # interface is identical, so the loop body below is shared; the acyclic
    # delta path stays bit-identical to the seed.
    evaluator_class = (CyclicSlackEvaluator if graph.cyclic
                       else DeltaSlackEvaluator)
    evaluator = evaluator_class(graph, graph.delay_vector(state.delays),
                                clock_period, aligned=True)

    # Hot-loop locals.  The evaluator mutates its arrival/required lists in
    # place (never rebinds them), so the references stay valid across
    # set_delay/rollback; ``pinned``/``frozen`` are the state's own sets.
    variants = state.variants
    pinned_set = state.pinned
    frozen = state.frozen
    slower_of = state.template.slower_of
    faster_of = state.template.faster_of
    arrival = evaluator.arrival
    required = evaluator.required
    node_index = graph.index

    # ---- step 3 of Fig. 7: repair negative aligned slack by speeding up ---------
    while evaluator.worst_slack() < -_EPS and iterations < iteration_budget:
        # Candidates: every operation still violating timing (binned to the
        # worst value first, then any violator — alignment effects can give
        # the true culprit a slightly less negative slack than the worst op,
        # e.g. when the worst op is an un-upgradable I/O operation).
        critical = [name for name in evaluator.critical_operations(margin)
                    if name not in pinned_set and name not in frozen]
        violators = [name for name in evaluator.violating_operations(-_EPS)
                     if name not in pinned_set and name not in frozen]

        def cheapest_upgrade(names):
            best: Optional[Tuple[float, str, ResourceVariant]] = None
            for name in names:
                variant = variants[name]
                if variant is None:
                    continue
                faster = faster_of[name].get(variant.name, _MISSING)
                if faster is _MISSING:
                    faster = state.resource_class(name).next_faster(variant)
                if faster is None:
                    continue
                gain = variant.delay - faster.delay
                if gain <= _EPS:
                    continue
                cost = (faster.area - variant.area) / gain
                if best is None or cost < best[0]:
                    best = (cost, name, faster)
            return best

        best_choice = cheapest_upgrade(critical) or cheapest_upgrade(violators)
        if best_choice is None:
            break  # nothing left to speed up: infeasible at this clock period
        _, name, faster = best_choice
        state.set_variant(name, faster)
        evaluator.set_delay(node_index[name], faster.delay)
        upgrades += 1
        iterations += 1

    # ---- step 4 of Fig. 7: distribute positive slack by slowing down ------------
    # A still-diverged cyclic evaluator has no meaningful per-op slack to
    # distribute: skip the downgrade loop and report the infeasible II.
    skip_downgrades = bool(getattr(evaluator, "diverged", False))
    feasible_baseline = evaluator.worst_slack() >= -_EPS
    margin_eps = margin + _EPS
    while not skip_downgrades and iterations < iteration_budget:
        candidates: List[Tuple[float, float, str, ResourceVariant]] = []
        for name, variant in variants.items():
            if variant is None or name in pinned_set or name in frozen:
                continue
            index = node_index[name]
            slack = required[index] - arrival[index]
            if slack <= margin_eps:
                continue
            slower = slower_of[name].get(variant.name, _MISSING)
            if slower is _MISSING:
                slower = state.resource_class(name).next_slower(variant)
            if slower is None:
                continue
            delay_increase = slower.delay - variant.delay
            if delay_increase > slack + _EPS:
                continue
            saving = variant.area - slower.area
            if saving <= _EPS:
                continue
            candidates.append((saving, slack, name, slower))
        if not candidates:
            break
        candidates.sort(key=lambda item: (-item[0], -item[1], item[2]))
        accepted = False
        accepted_worst = evaluator.worst_slack()
        for saving, slack, name, slower in candidates:
            previous = variants[name]
            state.set_variant(name, slower)
            iterations += 1
            evaluator.begin_trial()
            evaluator.set_delay(node_index[name], slower.delay)
            trial_worst = evaluator.worst_slack()
            worst_ok = (trial_worst >= -_EPS) if feasible_baseline else (
                trial_worst >= accepted_worst - _EPS)
            if worst_ok:
                evaluator.commit()
                downgrades += 1
                accepted = True
                break
            evaluator.rollback()
            state.set_variant(name, previous)
            frozen.add(name)
        if not accepted:
            break

    timing = evaluator.export()
    cache.record_delta(evaluator.updates)
    _BUDGET_RUNS.inc()
    _BUDGET_ITERATIONS.inc(iterations)

    return BudgetingResult(
        clock_period=clock_period,
        margin=margin,
        delays=dict(state.delays),
        variants=dict(state.variants),
        timing=timing,
        feasible=timing.worst_slack() >= -_EPS,
        iterations=iterations,
        upgrades=upgrades,
        downgrades=downgrades,
        frozen=set(state.frozen),
    )
