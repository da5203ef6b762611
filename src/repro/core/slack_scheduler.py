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

The outer relaxation loop (add a resource instance, upgrade a grade) applies
the same "expert system" moves as the conventional flow
(:func:`repro.sched.relaxation.relax`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import InfeasibleDesignError, TimingError
from repro.ir.design import Design
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.ir.operations import OpKind
from repro.core.analysis_cache import AnalysisCache, default_cache
from repro.core.budgeting import BudgetingResult, budget_slack
from repro.obs.trace import span as _obs_span
from repro.sched.allocation import Allocation, minimal_allocation
from repro.sched.list_scheduler import SchedulingAttempt, try_list_schedule
from repro.sched.priorities import combined_priority
from repro.sched.relaxation import RelaxationLog, relax
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


class SlackScheduler:
    """Schedules a design using sequential-slack guidance.

    Parameters
    ----------
    design, library, clock_period:
        The design, resource library and target clock period (ps).
    margin_fraction:
        Slack-binning margin for the budgeting passes (paper: 5 %).
    rebudget_every_edge:
        Redo slack budgeting after every scheduled CFG edge (the paper's
        behaviour).  Disabling it keeps only the step-0 budgeting, which is
        useful for ablation studies.
    pipeline_ii, timing_margin, max_relaxations:
        Passed through to the underlying scheduling machinery.
    artifacts:
        Optional precomputed per-point analyses
        (:class:`repro.flows.pipeline.PointArtifacts`); when given, the
        latency analysis, operation spans and timed DFG are reused instead
        of being rebuilt, which matters for DSE sweeps that run several
        flows on the same design.
    cache:
        The :class:`repro.core.analysis_cache.AnalysisCache` backing the
        per-edge rebuilds and the sequential-slack calls (default: the
        process-wide cache).  A per-edge rebuild is the pinned spans plus
        the design's compact timed graph reweighted by them
        (:meth:`~repro.core.analysis_cache.AnalysisCache.pinned_spans_and_timed`),
        so no timed DFG is built after step 0.  The relaxation loop replays
        the same schedule prefixes attempt after attempt, so on
        relaxation-heavy design points most rebuilds are cache hits.

    Tracing (:mod:`repro.obs.trace`) records one ``sched.attempt`` span per
    schedule pass and one ``sched.rebudget`` span per per-edge re-budget.
    """

    def __init__(
        self,
        design: Design,
        library: Library,
        clock_period: float,
        margin_fraction: float = 0.05,
        rebudget_every_edge: bool = True,
        pipeline_ii: Optional[int] = None,
        timing_margin: float = 0.0,
        max_relaxations: int = 200,
        artifacts=None,
        cache: Optional[AnalysisCache] = None,
    ):
        self.design = design
        self.library = library
        self.clock_period = clock_period
        self.margin_fraction = margin_fraction
        self.rebudget_every_edge = rebudget_every_edge
        self.pipeline_ii = pipeline_ii if pipeline_ii is not None else design.pipeline_ii
        self.timing_margin = timing_margin
        self.max_relaxations = max_relaxations
        self._cache = cache if cache is not None else default_cache()

        if artifacts is None:
            artifacts = self._cache.artifacts(design)
        self._artifacts = artifacts
        self._latency = artifacts.latency
        self._spans = artifacts.spans
        self._timed = artifacts.timed
        self._rebudget_count = 0
        # Grades forced by the relaxation loop; re-budgeting must not undo them.
        self._locked: Dict[str, ResourceVariant] = {}

    # -- public API -----------------------------------------------------------------

    def run(self) -> SlackScheduleResult:
        """Run step 0 budgeting plus the relaxation/scheduling loop."""
        initial_budget = budget_slack(
            self.design, self.library, self.clock_period,
            margin_fraction=self.margin_fraction,
            graph=self._timed.compact(), cache=self._cache,
        )
        variants: Dict[str, Optional[ResourceVariant]] = dict(initial_budget.variants)
        allocation = minimal_allocation(self.design, self.library, spans=self._spans,
                                        pipeline_ii=self.pipeline_ii)
        log = RelaxationLog()
        self._rebudget_count = 0

        for _ in range(self.max_relaxations):
            log.count_attempt()
            with _obs_span("sched.attempt", flow="slack-based",
                           attempt=log.attempts) as attempt_span:
                attempt, working = self._schedule_pass(variants, allocation)
                if not attempt.success:
                    attempt_span.set(failure=attempt.failure.reason)
            # Carry the grades the pass actually used (re-budgeting and
            # on-the-fly upgrades included) into the next attempt, so the
            # relaxation repairs the real configuration.
            variants = working
            if attempt.success:
                schedule = attempt.schedule
                final_variants = dict(variants)
                for item in schedule.items:
                    final_variants[item.op] = item.variant
                return SlackScheduleResult(
                    schedule=schedule,
                    variants=final_variants,
                    allocation=allocation,
                    initial_budget=initial_budget,
                    rebudget_count=self._rebudget_count,
                    relaxation=log,
                )
            upgraded = relax(self.design, self.library, self.clock_period,
                             self.timing_margin, attempt.failure, variants,
                             allocation, log)
            if upgraded is not None:
                self._locked[upgraded] = variants[upgraded]
        raise InfeasibleDesignError(
            f"design {self.design.name!r} still unschedulable after "
            f"{self.max_relaxations} relaxations"
        )

    # -- internals --------------------------------------------------------------------

    def _schedule_pass(
        self,
        variants: Dict[str, Optional[ResourceVariant]],
        allocation: Allocation,
    ) -> Tuple[SchedulingAttempt, Dict[str, Optional[ResourceVariant]]]:
        """One schedule pass with per-edge re-budgeting.

        Returns the attempt plus the working variant map the pass ended with.
        """
        working = dict(variants)
        working.update(self._locked)
        delays = {
            op.name: self.library.operation_delay(op, working.get(op.name))
            for op in self.design.dfg.operations if op.kind is not OpKind.CONST
        }
        pass_timing = self._cache.sequential_slack(self._timed, delays,
                                                   self.clock_period,
                                                   aligned=True)
        priority = combined_priority(pass_timing, self._spans)
        edge_order = self._latency.forward_edge_names
        edge_position = {name: index for index, name in enumerate(edge_order)}

        def post_edge_hook(edge_name: str, schedule: Schedule, pending):
            if not self.rebudget_every_edge or not pending:
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
                        initial_variants={k: v for k, v in working.items()
                                          if v is not None and k in pending},
                        pinned_variants=pinned_variants,
                        cache=self._cache,
                    )
            except TimingError:
                # A pending operation has no legal edge left; let the main
                # scheduling loop report the structured failure.
                return None
            self._rebudget_count += 1
            for name in pending:
                if name in rebudget.variants:
                    working[name] = rebudget.variants[name]
            new_priority = combined_priority(rebudget.timing, new_spans)
            return (new_spans, working, new_priority)

        attempt = try_list_schedule(
            self.design, self.library, self.clock_period, working, allocation,
            spans=self._spans, latency=self._latency, priority=priority,
            pipeline_ii=self.pipeline_ii, timing_margin=self.timing_margin,
            post_edge_hook=post_edge_hook,
            upgrade_on_last_chance=True,
        )
        return attempt, working
