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
recurrences into the grade selection.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.errors import ReproError
from repro.ir.design import Design
from repro.lib.library import Library
from repro.core.budgeting import budget_slack
from repro.core.slack_scheduler import SlackScheduler
from repro.core.timed_dfg import build_cyclic_timed_dfg
from repro.flows.pipeline import PointArtifacts, finalize_flow
from repro.flows.result import FlowResult
from repro.obs.trace import span as _obs_span
from repro.sched.modulo_scheduler import compute_mii, try_modulo_schedule
from repro.sched.priorities import combined_priority
from repro.sched.relaxation import schedule_with_relaxation


def slack_based_flow(
    design: Design,
    library: Library,
    clock_period: Optional[float] = None,
    margin_fraction: float = 0.05,
    rebudget_every_edge: bool = True,
    pipeline_ii: Optional[int] = None,
    timing_margin: float = 0.0,
    area_recovery: bool = True,
    register_margin: float = 0.0,
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
    clock_period = clock_period or design.clock_period
    if clock_period is None:
        raise ReproError("a clock period is required (argument or design attribute)")
    if scheduling not in ("block", "pipeline"):
        raise ReproError(f"unknown scheduling mode {scheduling!r} "
                         f"(expected 'block' or 'pipeline')")
    pipeline_ii = pipeline_ii if pipeline_ii is not None else design.pipeline_ii

    if scheduling == "pipeline":
        return _pipelined_slack_flow(
            design, library, clock_period,
            margin_fraction=margin_fraction,
            pipeline_ii=pipeline_ii,
            timing_margin=timing_margin,
            area_recovery=area_recovery,
            register_margin=register_margin,
            artifacts=artifacts,
        )

    start_time = time.perf_counter()
    scheduler = SlackScheduler(
        design, library, clock_period,
        margin_fraction=margin_fraction,
        rebudget_every_edge=rebudget_every_edge,
        pipeline_ii=pipeline_ii,
        timing_margin=timing_margin,
        artifacts=artifacts,
    )
    scheduling_start = time.perf_counter()
    with _obs_span("flow.schedule", flow="slack-based", design=design.name,
                   scheduling="block"):
        result = scheduler.run()
    scheduling_seconds = time.perf_counter() - scheduling_start

    details: Dict[str, object] = {
        "initial_budget_feasible": result.initial_budget.feasible,
        "initial_budget_iterations": result.initial_budget.iterations,
        "budget_grade_histogram": result.initial_budget.grade_histogram(),
        "rebudget_count": result.rebudget_count,
        "relaxation_attempts": result.relaxation.attempts,
        "resources_added": list(result.relaxation.resources_added),
        "grade_upgrades": list(result.relaxation.upgrades),
    }
    return finalize_flow(
        flow="slack-based",
        design=design,
        library=library,
        schedule=result.schedule,
        allocation=result.allocation,
        clock_period=clock_period,
        pipeline_ii=pipeline_ii,
        start_time=start_time,
        scheduling_seconds=scheduling_seconds,
        details=details,
        area_recovery=area_recovery,
        register_margin=register_margin,
    )


def _pipelined_slack_flow(
    design: Design,
    library: Library,
    clock_period: float,
    margin_fraction: float,
    pipeline_ii: Optional[int],
    timing_margin: float,
    area_recovery: bool,
    register_margin: float,
    artifacts: Optional[PointArtifacts],
) -> FlowResult:
    """Slack-based flow over a pipelined loop: cyclic budget + modulo schedule.

    The step-0 budget runs on the cyclic timed DFG at the target II.  An II
    below the recurrence minimum does not abort budgeting — the cyclic
    evaluator reports the improving recurrence operations as critical with
    ``-inf`` slack, which steers the budgeting upgrades toward a feasible
    fixpoint (and the modulo scheduler's relaxation bumps the II if the
    recurrences still do not fit at the scheduled grades).
    """
    from repro.flows.conventional import _fastest_variants

    start_time = time.perf_counter()
    if artifacts is None:
        artifacts = PointArtifacts.of(design)
    latency = artifacts.latency
    spans = artifacts.spans

    mii = compute_mii(design, library, clock_period,
                      variant_map=_fastest_variants(design, library),
                      spans=spans, latency=latency)
    target_ii = pipeline_ii if pipeline_ii is not None else mii.mii

    timed = build_cyclic_timed_dfg(design, target_ii, spans=spans,
                                   latency=latency)
    initial_budget = budget_slack(
        design, library, clock_period,
        margin_fraction=margin_fraction, graph=timed.compact(),
    )
    variants = dict(initial_budget.variants)

    scheduling_start = time.perf_counter()
    with _obs_span("flow.schedule", flow="slack-based", design=design.name,
                   scheduling="pipeline"):
        schedule, allocation, final_variants, relax_log = \
            schedule_with_relaxation(
                design, library, clock_period, variants,
                spans=spans, latency=latency,
                priority=combined_priority(initial_budget.timing, spans),
                pipeline_ii=target_ii,
                timing_margin=timing_margin,
                scheduler=try_modulo_schedule,
            )
    scheduling_seconds = time.perf_counter() - scheduling_start
    achieved_ii = relax_log.final_ii or target_ii

    details: Dict[str, object] = {
        "initial_budget_feasible": initial_budget.feasible,
        "initial_budget_iterations": initial_budget.iterations,
        "budget_grade_histogram": initial_budget.grade_histogram(),
        "rebudget_count": 0,
        "relaxation_attempts": relax_log.attempts,
        "resources_added": list(relax_log.resources_added),
        "grade_upgrades": list(relax_log.upgrades),
        "initiation_interval": achieved_ii,
        "ii_bumps": list(relax_log.ii_bumps),
        "res_mii": mii.res_mii,
        "rec_mii": mii.rec_mii,
    }
    return finalize_flow(
        flow="slack-based",
        design=design,
        library=library,
        schedule=schedule,
        allocation=allocation,
        clock_period=clock_period,
        pipeline_ii=achieved_ii,
        start_time=start_time,
        scheduling_seconds=scheduling_seconds,
        details=details,
        area_recovery=area_recovery,
        register_margin=register_margin,
    )
