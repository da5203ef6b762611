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
from repro.core.analysis_cache import default_cache
from repro.core.budgeting import BudgetingResult, _BudgetState, budget_slack
from repro.core.delta_slack import DeltaSlackEvaluator
from repro.core.timed_dfg import SINK_PREFIX, bound_weights
from repro.obs.trace import span as _obs_span
from repro.sched.allocation import Allocation
from repro.sched.list_scheduler import SchedulingAttempt, try_list_schedule
from repro.sched.priorities import combined_priority
from repro.sched.relaxation import RelaxationLog, _relax_until_scheduled
from repro.sched.schedule import Schedule


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


class _Rebudget:
    """One re-budget of a schedule pass, kept for the next pass to replay.

    The input: the next edge, the pinned operations' edge positions (the
    layer's ``early``), and the budget state's grades and pinned flags once
    the edge's placements are pinned.  The outcome: the update
    :meth:`_PassState.rebudget` returned, whose grade list is the budget
    state's whole grade list after the loop, with the delays the loop left;
    or the text of the :class:`TimingError` the re-budget raised.
    """

    __slots__ = ("next_edge", "early", "grades", "pinned", "update",
                 "delays", "error")

    def __init__(self, next_edge: str, early: List[int],
                 grades: List[Optional[ResourceVariant]], pinned: List[bool],
                 update: Optional[tuple] = None,
                 delays: Optional[List[float]] = None,
                 error: Optional[str] = None):
        self.next_edge = next_edge
        self.early = early
        self.grades = grades
        self.pinned = pinned
        self.update = update
        self.delays = delays
        self.error = error


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
    warm start.  No name is looked up after the pins: the update the list
    scheduler reads is on op indices (the span template's operation ``i``
    is the op table's), and the list scheduler writes the grades back into
    the pass's grade map when the pass returns.

    **Replay.**  Each re-budget is kept in :attr:`rebudgets` by edge (a
    :class:`_Rebudget`): its input and its whole update, whose grade list
    is the budget state's whole grade list after the loop, with the delays
    the loop left.  Given the previous pass's re-budgets (``previous``), a
    re-budget whose whole input equals that pass's on the same edge (the
    next edge, the pinned operations' edge positions, the grades and the
    pinned flags) is not recomputed: it restores the budget state's grades
    and delays from the kept lists and returns the kept update, or raises
    the kept :class:`TimingError` text.  :attr:`replayed` says which it
    was.  That is exact:

    * the outcome is a pure function of the input.  The pins fix the spans
      and weights (the pending operations are those not pinned yet), and
      the grades before the loop hold both the warm start and the locked
      grades (``pinned``); on the first edge the warm start is the
      pass-start grade map;
    * grades compare with list equality, which tests identity first; the
      variants are library singletons, so equal grades are the same
      objects;
    * pins only accumulate, so once this pass's pinned edges differ from
      the previous pass's on some edge, no later entry can match, and the
      previous pass's entries are dropped;
    * a kept priority reads its own arrival and required vectors: the next
      re-budget that is computed reseeds the evaluator from scratch, and
      :meth:`~repro.core.delta_slack.DeltaSlackEvaluator.reseed` rebinds
      them.  A replay leaves the pass's graph and evaluator as the last
      computed re-budget left them.

    A state made without ``previous`` computes every re-budget.
    """

    def __init__(self, scheduler: "SlackScheduler",
                 variants: Dict[str, Optional[ResourceVariant]],
                 previous: Optional[Dict[str, _Rebudget]] = None):
        self._scheduler = scheduler
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
        # every edge (made by the first re-budget that is computed).
        self._graph = None
        self._previous = previous
        #: This pass's re-budgets by edge, for the next pass to replay.
        self.rebudgets: Dict[str, _Rebudget] = {}
        #: Whether the last :meth:`rebudget` replayed the previous pass's.
        self.replayed = False

    def rebudget(self, edge_name: str, schedule: Schedule,
                 next_edge: str) -> tuple:
        """Pin what ``edge_name`` placed and re-budget the other operations.

        Returns the list scheduler's update, on op indices: ``(priority,
        grades, masks, lates)``.  ``priority(i)`` is ``(slack, mobility,
        name)`` as in :func:`repro.sched.priorities.combined_priority`;
        ``grades`` is the budget state's whole grade list after the loop
        (the pinned operations' are their scheduled grades); ``masks`` and
        ``lates`` are the span masks and late-edge positions
        :meth:`~repro.core.opspan._SpanTemplate.bounds` filled.  The lists
        are kept for replay, so no caller may change them.  Raises
        :class:`TimingError` when an operation has no feasible early edge
        or a timed edge has no latency.
        """
        scheduler = self._scheduler
        span_template, budget_template, pairs, base = self._tables
        budget = self._budget
        layer = self._layer
        op_index = budget_template.index
        placed = schedule.ops_on_edge(edge_name)
        if placed:
            pins = {op_index[item.op]: item.edge for item in placed}
            layer.pin(pins.items())
            self._free = [record for record in self._free
                          if record[0] not in pins]
            for item in placed:
                budget.pin(op_index[item.op], item.variant)

        kept = self._replayable(edge_name, next_edge)
        self.replayed = kept is not None
        if kept is not None:
            self.rebudgets[edge_name] = kept
            if kept.error is not None:
                raise TimingError(kept.error)
            budget.variants = list(kept.update[1])
            budget.delays = list(kept.delays)
            return kept.update

        grades = list(budget.variants)
        bits = span_template.bits
        floor = -(1 << bits.position[next_edge])
        try:
            early, late, masks = span_template.bounds(layer, self._free, floor)
            weights = bound_weights(pairs, early, late, bits,
                                    span_template.order)
        except TimingError as error:
            self.rebudgets[edge_name] = _Rebudget(
                next_edge, list(layer.early), grades, list(budget.pinned),
                error=str(error))
            raise
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

        arrival = budget.evaluator.arrival
        required = budget.evaluator.required
        rows = bits.rows
        names = budget_template.names

        def priority(index: int) -> Tuple:
            mobility = rows[early[index]][late[index]]
            return (required[index] - arrival[index],
                    0 if mobility is None else mobility, names[index])

        update = (priority, list(budget.variants), masks, late)
        self.rebudgets[edge_name] = _Rebudget(
            next_edge, list(layer.early), grades, list(budget.pinned),
            update, list(budget.delays))
        return update

    def _replayable(self, edge_name: str,
                    next_edge: str) -> Optional[_Rebudget]:
        """The previous pass's re-budget on ``edge_name`` if its input
        equals this one's, else None."""
        previous = self._previous
        if previous is None:
            return None
        kept = previous.get(edge_name)
        if kept is None:
            return None
        if kept.early != self._layer.early:
            # Pins only accumulate: no later edge can match either.
            self._previous = None
            return None
        budget = self._budget
        if (kept.next_edge == next_edge and kept.grades == budget.variants
                and kept.pinned == budget.pinned):
            return kept
        return None


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
    and no name-keyed map is built after step 0.  The hook hands the list
    scheduler the re-budget's index arrays (priority, grades, span masks
    and late-edge positions).  The pass-start slack goes
    through the process-wide
    :func:`~repro.core.analysis_cache.default_cache`, and the span and
    budget templates come from it once per run; the pass-start delays are
    the budget template's.

    A pass that fails is rerun after one relaxation move, and most of its
    re-budgets then see the same input again.  So each pass hands its
    re-budgets to the next, which replays, instead of recomputing, every
    re-budget whose whole input (next edge, pinned edges, grades and pinned
    flags) equals the previous pass's on the same edge; the outcome is a
    pure function of that input (see :class:`_PassState`).  A replay is
    still a re-budget: it counts in ``rebudget_count`` and has its span.

    Each :meth:`run` starts from a clean slate: the grades one run's
    relaxation loop locked do not carry over to the next, no pass sees
    another's pins, and the last pass's re-budgets are dropped when the run
    returns.

    Tracing (:mod:`repro.obs.trace`) records one ``sched.attempt`` span per
    schedule pass (see :mod:`repro.sched.relaxation`) and one
    ``sched.rebudget`` span per per-edge re-budget, whose ``replayed``
    attribute says whether it was replayed.
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
        # The last pass's re-budgets, which the next pass may replay.
        self._rebudgets: Optional[Dict[str, _Rebudget]] = None
        try:
            schedule, allocation, variants, log = _relax_until_scheduled(
                self.design, self.library, self.clock_period,
                initial_budget.variants, self._spans, self.pipeline_ii,
                self._schedule_pass, "slack-based",
                locked=self._locked,
            )
        finally:
            self._rebudgets = None
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
        ``(src, dst)`` op indices (``dst`` None for a sink edge) and the
        design's compact timed graph.  The two templates number the
        operations alike: the span template's operation ``i`` is the op
        table's, which ``check_nodes`` ties to node ``i`` of the graph."""
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
        grades first, then, when the list scheduler returns, each
        re-budget's and each on-the-fly upgrade (its write-back rule), so
        the relaxation that follows repairs the real configuration.
        """
        variants.update(self._locked)
        table = self._tables[1]
        delays = {name: table.pinned_delay(index, variants.get(name))
                  for index, name in enumerate(table.names)}
        pass_timing = self._cache.sequential_slack(self._timed, delays,
                                                   self.clock_period,
                                                   aligned=True)
        priority = combined_priority(pass_timing, self._spans)
        edge_order = self._latency.forward_edge_names
        state = _PassState(self, variants, self._rebudgets)

        def post_edge_hook(edge_name: str, schedule: Schedule, step: int):
            if step + 1 >= len(edge_order):
                return None
            try:
                with _obs_span("sched.rebudget", edge=edge_name) as span:
                    try:
                        update = state.rebudget(edge_name, schedule,
                                                edge_order[step + 1])
                    finally:
                        span.set(replayed=state.replayed)
            except TimingError:
                # A pending operation has no legal edge left; let the main
                # scheduling loop report the structured failure.
                return None
            self._rebudget_count += 1
            return update

        attempt = try_list_schedule(
            self.design, self.library, self.clock_period, variants, allocation,
            spans=self._spans, latency=self._latency, priority=priority,
            pipeline_ii=pipeline_ii, post_edge_hook=post_edge_hook,
        )
        self._rebudgets = state.rebudgets
        return attempt
