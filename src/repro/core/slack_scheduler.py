"""The slack-guided scheduling framework (paper Section VI, Fig. 8).

The enhanced scheduler differs from the conventional one in two ways (the
bold steps of Fig. 8):

* **step 0** — before scheduling, slack budgeting selects the best speed
  grade for every operation from the globally budgeted delay/area standpoint
  (fast grades for critical operations, slow/cheap grades for the rest);
* **inside the schedule pass** — after every scheduled CFG edge the opSpans
  of the not-yet-scheduled operations are recomputed (scheduled operations
  are pinned to their edges) and the slack budgeting is redone, so that
  timing degradation introduced by sharing/deferral is repaired on the fly
  by upgrading the remaining operations.

Everything else is the conventional flow's: :meth:`SlackScheduler.run`
hands its re-budgeting pass to the relaxation loop both flows share
(:mod:`repro.sched.relaxation`), which adds instances and upgrades grades
until a pass succeeds.  The grades that loop upgrades stay locked, so
re-budgeting cannot undo them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import TimingError
from repro.ir.design import Design
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.ir.operations import OpKind
from repro.core.analysis_cache import default_cache
from repro.core.budgeting import BudgetingResult, _BudgetState, budget_slack
from repro.core.delta_slack import DeltaSlackEvaluator
from repro.core.opspan import SpanInfo
from repro.core.timed_dfg import SINK_PREFIX, bound_weights
from repro.obs.trace import span as _obs_span
from repro.sched.allocation import Allocation
from repro.sched.list_scheduler import SchedulingAttempt, try_list_schedule
from repro.sched.priorities import PriorityFn, combined_priority
from repro.sched.relaxation import RelaxationLog, _relax_until_scheduled
from repro.sched.schedule import Schedule

#: Passes :meth:`SlackScheduler.run` makes before the design is declared
#: unschedulable.
_MAX_ATTEMPTS = 200


@dataclass
class SlackScheduleResult:
    """Outcome of the slack-guided scheduler."""

    schedule: Schedule
    variants: Dict[str, Optional[ResourceVariant]]
    allocation: Allocation
    initial_budget: BudgetingResult
    rebudget_count: int
    relaxation: RelaxationLog

    def variant_of(self, op_name: str) -> Optional[ResourceVariant]:
        return self.variants.get(op_name)


class _PassSpans:
    """The spans of the pending operations after one re-budget.

    The list scheduler reads the span of every pending operation on every
    edge, so one re-budget builds them all at once, by name; ``span`` is
    the lookup (a name that is not pending raises :class:`KeyError`).
    """

    __slots__ = ("span",)

    def __init__(self, spans: Dict[str, SpanInfo]):
        self.span = spans.__getitem__


class _PassState:
    """The re-budget state of one schedule pass, kept on op indices.

    :meth:`SlackScheduler._schedule_pass` makes one per pass, so every pass
    starts clean.  After each scheduled CFG edge, :meth:`rebudget` pins the
    operations the edge placed and recomputes everything else from scratch:

    * every operation's early and late edge, with the span template's
      bitset rule (:meth:`repro.core.opspan._SpanTemplate.bounds`);
    * every timed-edge weight from those edges, the sink edges' included
      (:func:`repro.core.timed_dfg.bound_weights`), written into the pass's
      own copy of the design's compact timed graph;
    * arrival and required times, by the full kernels
      (:meth:`~repro.core.delta_slack.DeltaSlackEvaluator.reseed`);
    * the budget, by :func:`~repro.core.budgeting.budget_slack`'s loop on
      the pass's :class:`~repro.core.budgeting._BudgetState`, whose warm
      start is what the previous re-budget left.

    The results equal, float for float, the object path: ``OperationSpans(
    pinned=..., not_before=...)``, its timed graph and ``budget_slack(
    graph=...)`` with the scheduled grades pinned and the pending ones as
    warm start.  Names appear only where the list scheduler reads them: the
    pending operations' spans, priorities and grades.
    """

    def __init__(self, scheduler: "SlackScheduler",
                 variants: Dict[str, Optional[ResourceVariant]]):
        self._scheduler = scheduler
        self._variants = variants
        self._tables = scheduler._tables
        span_template, budget_template, _, _ = self._tables
        # The operations scheduled so far, pinned to their edges, and the
        # span records of the others.
        self._layer = span_template.layer()
        self._free: List[tuple] = span_template.records
        self._budget = _BudgetState(
            budget_template,
            {name: variant for name, variant in variants.items()
             if variant is not None},
            scheduler._locked)
        # The pass's own copy of the design's timed graph, reweighted after
        # every edge (made by the first re-budget).
        self._graph = None

    def rebudget(self, edge_name: str, schedule: Schedule, next_edge: str,
                 pending: frozenset) -> Tuple[_PassSpans, PriorityFn]:
        """Pin what ``edge_name`` placed and re-budget ``pending``.

        Returns the pending operations' spans and their priority function,
        ``(slack, mobility, name)`` as in
        :func:`repro.sched.priorities.combined_priority`.  Raises
        :class:`TimingError` when an operation has no feasible early edge
        or a timed edge has no latency.
        """
        scheduler = self._scheduler
        span_template, budget_template, pairs, base = self._tables
        budget = self._budget
        span_index = span_template.index
        op_index = budget_template.index
        placed = schedule.ops_on_edge(edge_name)
        if placed:
            pins = {span_index[item.op]: item.edge for item in placed}
            self._layer.pin(pins.items())
            self._free = [record for record in self._free
                          if record[0] not in pins]
            for item in placed:
                budget.pin(op_index[item.op], item.variant)

        latency = scheduler._latency
        floor = -(1 << latency.edge_order(next_edge))
        early, late = span_template.bounds(self._layer, self._free, floor)
        weights = bound_weights(pairs, early, late, latency,
                                span_template.order)
        delays = budget.delay_vector(base.num_nodes)
        if self._graph is None:
            self._graph = base.reweighted(weights)
            budget.evaluator = DeltaSlackEvaluator(
                self._graph, delays, scheduler.clock_period, aligned=True)
        else:
            self._graph.set_weights(weights)
            budget.evaluator.reseed(delays)
        budget_slack(scheduler.design, scheduler.library,
                     scheduler.clock_period,
                     margin_fraction=scheduler.margin_fraction, state=budget)

        # Export by name what the list scheduler reads.
        interned = span_template.interned
        info = span_template.info
        variants = budget.variants
        target = self._variants
        spans: Dict[str, SpanInfo] = {}
        for name in pending:
            index = span_index[name]
            first = early[index]
            last = late[index]
            span = interned.get((name, first, last))
            spans[name] = span if span is not None else info(index, first,
                                                              last)
            target[name] = variants[op_index[name]]
        arrival = budget.evaluator.arrival
        required = budget.evaluator.required
        latency_of = latency.latency

        def priority(op_name: str) -> Tuple:
            index = op_index[op_name]
            span = spans[op_name]
            mobility = latency_of(span.early, span.late)
            return (required[index] - arrival[index],
                    0 if mobility is None else mobility, op_name)

        return _PassSpans(spans), priority


class SlackScheduler:
    """Schedules a design using sequential-slack guidance.

    :meth:`run` budgets slack once (step 0), and every schedule pass then
    re-budgets the pending operations after each scheduled CFG edge — both
    bold steps of the paper's Fig. 8, always on.

    Parameters
    ----------
    design, library, clock_period:
        The design, resource library and target clock period (ps).
    margin_fraction:
        Slack-binning margin for the budgeting passes (paper: 5 %).
    pipeline_ii:
        Initiation interval the list scheduler folds resource slots by
        (default: the design's).
    artifacts:
        Optional precomputed per-point analyses
        (:class:`repro.flows.pipeline.PointArtifacts`); when given, the
        latency analysis, operation spans and timed DFG are reused instead
        of being rebuilt, which matters for DSE sweeps that run several
        flows on the same design.

    Each schedule pass re-budgets on one :class:`_PassState`, kept on op
    indices and made at the start of the pass: after every scheduled edge
    it pins the operations the edge placed and recomputes the spans, the
    timed-edge weights, arrival and required times and the budget from
    scratch, with the same routines the object path (``OperationSpans``,
    ``build_timed_dfg``, ``budget_slack(graph=...)``) runs, so no timed DFG
    and no name-keyed map is built after step 0.  The pass-start slack goes
    through the process-wide
    :func:`~repro.core.analysis_cache.default_cache`, and the span and
    budget templates come from it once per pass.

    Each :meth:`run` starts from a clean slate: the grades one run's
    relaxation loop locked do not carry over to the next, and no pass sees
    another's pins.

    Tracing (:mod:`repro.obs.trace`) records one ``sched.attempt`` span per
    schedule pass (see :mod:`repro.sched.relaxation`) and one
    ``sched.rebudget`` span per per-edge re-budget.
    """

    def __init__(
        self,
        design: Design,
        library: Library,
        clock_period: float,
        margin_fraction: float = 0.05,
        pipeline_ii: Optional[int] = None,
        artifacts=None,
    ):
        self.design = design
        self.library = library
        self.clock_period = clock_period
        self.margin_fraction = margin_fraction
        self.pipeline_ii = pipeline_ii if pipeline_ii is not None else design.pipeline_ii
        self._cache = default_cache()

        if artifacts is None:
            artifacts = self._cache.artifacts(design)
        self._artifacts = artifacts
        self._latency = artifacts.latency
        self._spans = artifacts.spans
        self._timed = artifacts.timed

    # -- public API -----------------------------------------------------------------

    def run(self) -> SlackScheduleResult:
        """Run step 0 budgeting, then the relaxation loop over the pass."""
        initial_budget = budget_slack(
            self.design, self.library, self.clock_period,
            margin_fraction=self.margin_fraction,
            graph=self._timed.compact(),
        )
        self._rebudget_count = 0
        # Grades forced by this run's relaxation loop; re-budgeting must
        # not undo them.
        self._locked: Dict[str, ResourceVariant] = {}
        self._tables = self._pass_tables()
        schedule, allocation, variants, log = _relax_until_scheduled(
            self.design, self.library, self.clock_period,
            initial_budget.variants, self._spans, self.pipeline_ii,
            self._schedule_pass, _MAX_ATTEMPTS, "slack-based",
            locked=self._locked,
        )
        variants.update(schedule.variant_map())
        return SlackScheduleResult(
            schedule=schedule,
            variants=variants,
            allocation=allocation,
            initial_budget=initial_budget,
            rebudget_count=self._rebudget_count,
            relaxation=log,
        )

    # -- internals --------------------------------------------------------------------

    def _pass_tables(self) -> tuple:
        """What every :class:`_PassState` of one :meth:`run` reads and none
        changes: the span and budget templates, the timed edges as
        ``(src, dst)`` span-template indices (``dst`` None for a sink edge)
        and the design's compact timed graph."""
        # The artifacts' design: the structure the timed graph and the
        # latency analysis were built from, shared by every point of it.
        span_template = self._cache.span_template(self._artifacts.design,
                                                  self._latency)
        budget_template = self._cache.budget_template(self.design,
                                                      self.library)
        base = self._timed.compact()
        budget_template.check_nodes(base, self.design)
        index = span_template.index
        pairs = [(index[src], None if dst.startswith(SINK_PREFIX)
                  else index[dst])
                 for src, dst in self._timed.edge_pairs()]
        return span_template, budget_template, pairs, base

    def _schedule_pass(
        self,
        variants: Dict[str, Optional[ResourceVariant]],
        allocation: Allocation,
        pipeline_ii: Optional[int],
    ) -> SchedulingAttempt:
        """One schedule pass with per-edge re-budgeting.

        Writes the grades the pass uses into ``variants``: the locked
        grades first, then each re-budget's and each on-the-fly upgrade,
        so the relaxation that follows repairs the real configuration.
        """
        variants.update(self._locked)
        delays = {
            op.name: self.library.operation_delay(op, variants.get(op.name))
            for op in self.design.dfg.operations if op.kind is not OpKind.CONST
        }
        pass_timing = self._cache.sequential_slack(self._timed, delays,
                                                   self.clock_period,
                                                   aligned=True)
        priority = combined_priority(pass_timing, self._spans)
        edge_order = self._latency.forward_edge_names
        edge_position = {name: index for index, name in enumerate(edge_order)}
        state = _PassState(self, variants)

        def post_edge_hook(edge_name: str, schedule: Schedule, pending):
            if not pending:
                return None
            index = edge_position[edge_name]
            if index + 1 >= len(edge_order):
                return None
            try:
                with _obs_span("sched.rebudget", edge=edge_name):
                    update = state.rebudget(edge_name, schedule,
                                            edge_order[index + 1], pending)
            except TimingError:
                # A pending operation has no legal edge left; let the main
                # scheduling loop report the structured failure.
                return None
            self._rebudget_count += 1
            return update

        return try_list_schedule(
            self.design, self.library, self.clock_period, variants, allocation,
            spans=self._spans, latency=self._latency, priority=priority,
            pipeline_ii=pipeline_ii, post_edge_hook=post_edge_hook,
        )
