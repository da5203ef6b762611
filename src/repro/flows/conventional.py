"""The conventional HLS flow (the paper's baseline).

1. Allocate the fastest resource variant for every operation.
2. Resource-constrained list scheduling (mobility priority) with the
   "expert system" relaxation loop.
3. Binding, register allocation and interconnect estimation.
4. RTL-style **within-state** area recovery (the only area optimisation the
   conventional methodology performs).

Setting ``initial_grades="slowest"`` turns this into the paper's "Case 2"
strategy: start from the slowest resources and upgrade them on the fly
whenever scheduling hits a timing failure.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.design import Design
from repro.lib.library import Library
from repro.flows.pipeline import FlowRun, PointArtifacts, grade_map
from repro.flows.result import FlowResult
from repro.sched.modulo_scheduler import try_modulo_schedule
from repro.sched.priorities import mobility_priority
from repro.sched.relaxation import schedule_with_relaxation


def conventional_flow(
    design: Design,
    library: Library,
    clock_period: Optional[float] = None,
    initial_grades: str = "fastest",
    pipeline_ii: Optional[int] = None,
    area_recovery: bool = True,
    artifacts: Optional[PointArtifacts] = None,
    scheduling: str = "block",
) -> FlowResult:
    """Run the conventional flow on ``design`` and return a :class:`FlowResult`.

    ``initial_grades`` is ``"fastest"`` (default) or ``"slowest"``; any
    other value raises :class:`~repro.errors.ReproError`.  ``artifacts``
    supplies precomputed per-point analyses (see
    :class:`repro.flows.pipeline.PointArtifacts`) so that sweeps running both
    flows on the same design pay for latency/span analysis only once.

    ``scheduling`` selects the engine: ``"block"`` (default) is the classic
    block-bounded list scheduler; ``"pipeline"`` modulo-schedules the loop at
    a concrete initiation interval — ``pipeline_ii`` when given, otherwise
    the computed MII (fastest-grade lower bound) — and lets the relaxation
    loop bump the II when the recurrences do not fit.  The achieved II lands
    in ``details["initiation_interval"]``.
    """
    variants = grade_map(design, library, initial_grades)
    run = FlowRun("conventional", design, library, clock_period, pipeline_ii,
                  scheduling, artifacts)
    with run.timed_schedule():
        schedule, allocation, _, log = schedule_with_relaxation(
            design, library, run.clock_period, variants,
            spans=run.spans, latency=run.latency,
            priority=mobility_priority(run.spans),
            pipeline_ii=run.pipeline_ii,
            scheduler=try_modulo_schedule if run.pipelined else None,
        )
    return run.finish(
        "conventional" if initial_grades == "fastest" else "slowest-first",
        schedule, allocation, log, {"initial_grades": initial_grades},
        area_recovery,
    )
