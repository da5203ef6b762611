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
from typing import Dict, Optional

from repro.errors import TimingError
from repro.ir.design import Design
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.ir.operations import OpKind
from repro.core.analysis_cache import default_cache
from repro.core.budgeting import BudgetingResult, budget_slack
from repro.obs.trace import span as _obs_span
from repro.sched.allocation import Allocation
from repro.sched.list_scheduler import SchedulingAttempt, try_list_schedule
from repro.sched.priorities import combined_priority
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

    The per-edge rebuilds and the sequential-slack calls go through the
    process-wide :func:`~repro.core.analysis_cache.default_cache`.  A
    per-edge rebuild is the pinned spans plus the design's compact timed
    graph reweighted by them
    (:meth:`~repro.core.analysis_cache.AnalysisCache.pinned_spans_and_timed`),
    so no timed DFG is built after step 0.  The relaxation loop replays the
    same schedule prefixes attempt after attempt, so on relaxation-heavy
    design points most rebuilds are cache hits.

    Each :meth:`run` starts from a clean slate: the grades one run's
    relaxation loop locked do not carry over to the next.

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

        def post_edge_hook(edge_name: str, schedule: Schedule, pending):
            if not pending:
                return None
            index = edge_position[edge_name]
            if index + 1 >= len(edge_order):
                return None
            next_edge = edge_order[index + 1]
            pinned_edges = schedule.as_sched_map()
            pinned_variants = dict(schedule.variant_map())
            for name, variant in self._locked.items():
                pinned_variants.setdefault(name, variant)
            try:
                with _obs_span("sched.rebudget", edge=edge_name):
                    new_spans, graph = self._cache.pinned_spans_and_timed(
                        self._artifacts, pinned_edges, next_edge)
                    rebudget = budget_slack(
                        self.design, self.library, self.clock_period,
                        margin_fraction=self.margin_fraction, graph=graph,
                        initial_variants={k: v for k, v in variants.items()
                                          if v is not None and k in pending},
                        pinned_variants=pinned_variants,
                    )
            except TimingError:
                # A pending operation has no legal edge left; let the main
                # scheduling loop report the structured failure.
                return None
            self._rebudget_count += 1
            for name in pending:
                if name in rebudget.variants:
                    variants[name] = rebudget.variants[name]
            return new_spans, combined_priority(rebudget.timing, new_spans)

        return try_list_schedule(
            self.design, self.library, self.clock_period, variants, allocation,
            spans=self._spans, latency=self._latency, priority=priority,
            pipeline_ii=pipeline_ii, post_edge_hook=post_edge_hook,
            upgrade_on_last_chance=True,
        )
