"""The slack-based HLS flow (the paper's proposal, Fig. 8 with bold steps).

1. Slack budgeting selects a speed grade per operation from the library's
   area/delay curves (fast grades only where the sequential slack demands it).
2. Slack-guided list scheduling with re-budgeting after every CFG edge.
3. Grade-aware binding, register allocation, interconnect estimation.
4. The same within-state area recovery as the conventional flow is applied at
   the end ("if successful, do area recovery" — it can only help, and makes
   the comparison with the baseline fair).

With ``scheduling="pipeline"`` the flow pipelines the loop instead of
treating it as a block: budgeting runs on the *cyclic* timed DFG at a
concrete initiation interval (loop-carried edges included, arrival/required
modulo II — see :func:`repro.core.timed_dfg.build_cyclic_timed_dfg`), and
placement uses the modulo scheduler with II bumps as a relaxation move.
Per-edge re-budgeting is skipped in this mode: its pinned-span machinery is
inherently acyclic, and the cyclic step-0 budget already prices the carried
recurrences into the grade selection.  An II below the recurrence minimum
does not abort budgeting — the cyclic evaluator reports the improving
recurrence operations as critical with ``-inf`` slack, which steers the
budgeting upgrades toward a feasible fixpoint (and the relaxation loop bumps
the II if the recurrences still do not fit at the scheduled grades).
"""

from __future__ import annotations

from typing import Optional

from repro.ir.design import Design
from repro.lib.library import Library
from repro.core.budgeting import budget_slack
from repro.core.slack_scheduler import SlackScheduler
from repro.core.timed_dfg import build_cyclic_timed_dfg
from repro.flows.pipeline import FlowRun, PointArtifacts
from repro.flows.result import FlowResult
from repro.sched.modulo_scheduler import try_modulo_schedule
from repro.sched.priorities import combined_priority
from repro.sched.relaxation import schedule_with_relaxation


def slack_based_flow(
    design: Design,
    library: Library,
    clock_period: Optional[float] = None,
    margin_fraction: float = 0.05,
    pipeline_ii: Optional[int] = None,
    area_recovery: bool = True,
    artifacts: Optional[PointArtifacts] = None,
    scheduling: str = "block",
) -> FlowResult:
    """Run the slack-based flow on ``design`` and return a :class:`FlowResult`.

    ``artifacts`` supplies precomputed per-point analyses (see
    :class:`repro.flows.pipeline.PointArtifacts`) so that sweeps running both
    flows on the same design pay for latency/span/timed-DFG analysis once.

    ``scheduling="pipeline"`` switches to II-aware budgeting plus modulo
    scheduling (see the module docstring); ``pipeline_ii`` then names the
    target initiation interval (default: the computed MII), and the achieved
    II lands in ``details["initiation_interval"]``.
    """
    run = FlowRun("slack-based", design, library, clock_period, pipeline_ii,
                  scheduling, artifacts)
    if run.pipelined:
        timed = build_cyclic_timed_dfg(design, run.pipeline_ii,
                                       spans=run.spans, latency=run.latency)
        budget = budget_slack(design, library, run.clock_period,
                              margin_fraction=margin_fraction,
                              graph=timed.compact())
        rebudget_count = 0
        with run.timed_schedule():
            schedule, allocation, _, log = schedule_with_relaxation(
                design, library, run.clock_period, budget.variants,
                spans=run.spans, latency=run.latency,
                priority=combined_priority(budget.timing, run.spans),
                pipeline_ii=run.pipeline_ii,
                scheduler=try_modulo_schedule,
            )
    else:
        scheduler = SlackScheduler(design, library, run.clock_period,
                                   margin_fraction=margin_fraction,
                                   pipeline_ii=run.pipeline_ii,
                                   artifacts=run.artifacts)
        with run.timed_schedule():
            result = scheduler.run()
        budget = result.initial_budget
        rebudget_count = result.rebudget_count
        schedule, allocation, log = (result.schedule, result.allocation,
                                     result.relaxation)
    details = {
        "initial_budget_feasible": budget.feasible,
        "initial_budget_iterations": budget.iterations,
        "budget_grade_histogram": budget.grade_histogram(),
        "rebudget_count": rebudget_count,
    }
    return run.finish("slack-based", schedule, allocation, log, details,
                      area_recovery)
