"""The per-point stage both HLS flows share: artifacts, driver, back end.

Both flows need the same per-design pre-analysis — a :class:`LatencyAnalysis`
of the CFG, the :class:`OperationSpans` and the timed DFG.
:class:`PointArtifacts` computes them once per design point and hands them
to whichever flows run on the point, so a DSE sweep does not pay for them
twice.

In the paper the conventional and slack-based flows differ only in the bold
steps of Fig. 8 (step-0 slack budgeting and per-edge re-budgeting), so
everything else is one driver, :class:`FlowRun`.  It resolves the clock
period, the scheduling mode, the artifacts and, in pipeline mode, the MII
and target II; it times the ``flow.schedule`` span; and
:meth:`FlowRun.finish` records the relaxation log in ``details`` and runs
the back end (datapath construction, within-state area recovery, state
timing, area/power reports).  A flow keeps only its grade selection and its
scheduling call.

Caching and invalidation
------------------------

Who owns which bundle:

* a :class:`~repro.flows.sweep.SweepSession` (and with it
  :func:`~repro.flows.dse.evaluate_point` and
  :func:`~repro.flows.dse.run_dse`) builds one private bundle per
  structure (:meth:`PointArtifacts.build`) and keeps it for the session;
* a flow called without ``artifacts`` takes the shared bundle of
  :meth:`PointArtifacts.of`, memoized in the ``artifacts`` table of the
  process-wide :class:`repro.core.analysis_cache.AnalysisCache` and keyed
  by :func:`repro.core.analysis_cache.design_fingerprint`.

The other per-design memos (templates, pinned spans, sequential slack) are
tables of the same process-wide cache, and no entry point takes a cache.
The rules that make the sharing sound:

* **What the key covers.** The fingerprint hashes the CFG and DFG structure
  (nodes, edges, operation attributes, insertion order).  Everything inside
  an artifact bundle is a pure function of that structure.
* **What the key ignores — deliberately.** The clock period, ``pipeline_ii``
  and the free-form ``design.attrs`` do not influence latency analysis,
  opSpans or the timed DFG, so one bundle serves the same design swept over
  clock periods and initiation intervals (that is the point of the cache).
* **Invalidation.** There is none by design: cached bundles are never
  mutated, and a *structurally* changed design produces a new fingerprint
  and therefore a new bundle.  The corollary is that designs must not be
  mutated structurally after first use — build a changed design anew (as
  :func:`repro.ir.transforms.unroll_loop` does) instead of editing one a
  flow has seen.  Use
  ``default_cache().clear()`` to drop every shared bundle and every other
  table (e.g. between unrelated sweeps in a long-lived process).
* **Mutable state stays out.** Schedules, bindings and datapaths are built
  per flow run and are never cached here; area recovery mutates instance
  variants on the per-run datapath only.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.analysis_cache import default_cache
from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans
from repro.core.timed_dfg import TimedDFG, build_timed_dfg
from repro.errors import ReproError
from repro.flows.result import FlowResult
from repro.ir.design import Design
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.obs.trace import span as _obs_span
from repro.rtl.area import area_report
from repro.rtl.area_recovery import recover_area
from repro.rtl.datapath import build_datapath
from repro.rtl.power import power_report
from repro.rtl.timing import analyze_state_timing
from repro.sched.allocation import Allocation
from repro.sched.modulo_scheduler import MIIResult, compute_mii
from repro.sched.relaxation import RelaxationLog
from repro.sched.schedule import Schedule


@dataclass
class PointArtifacts:
    """Per-design analyses shared by every flow run on one design point.

    The latency analysis and operation spans are deterministic functions of
    the design, so computing them once and sharing them across flows is
    bit-for-bit equivalent to recomputing them inside each flow.  The timed
    DFG is built lazily because the conventional flow does not need it.

    Treat a bundle as immutable: it may be shared across flows, design
    points and sweeps (see the module docstring for who owns which bundle
    and for the invalidation rules).
    """

    design: Design
    latency: LatencyAnalysis
    spans: OperationSpans
    _timed: Optional[TimedDFG] = field(default=None, repr=False)

    @classmethod
    def build(cls, design: Design) -> "PointArtifacts":
        """Compute a fresh bundle, bypassing the analysis cache."""
        latency = LatencyAnalysis(design.cfg)
        spans = OperationSpans(design, latency=latency)
        return cls(design=design, latency=latency, spans=spans)

    @classmethod
    def of(cls, design: Design) -> "PointArtifacts":
        """The shared bundle of ``design`` from the process-wide cache.

        Structurally identical designs — e.g. the same kernel rebuilt by a
        factory for several clock periods — resolve to one bundle.
        """
        return default_cache().artifacts(design)

    @property
    def timed(self) -> TimedDFG:
        if self._timed is None:
            self._timed = build_timed_dfg(self.design, spans=self.spans,
                                          latency=self.latency)
        return self._timed


def grade_map(design: Design, library: Library,
              grades: str) -> Dict[str, Optional[ResourceVariant]]:
    """Every non-constant operation's ``"fastest"`` or ``"slowest"`` grade,
    in design order, read off the design's op table.

    Operations that use no functional unit map to ``None``.
    """
    if grades not in ("fastest", "slowest"):
        raise ReproError(f"unknown initial grades {grades!r} "
                         f"(expected 'fastest' or 'slowest')")
    table = default_cache().budget_template(design, library)
    return {name: None if resource_class is None
            else getattr(resource_class, grades)
            for name, resource_class in zip(table.names, table.classes)}


class FlowRun:
    """The driver of one flow run on one design point.

    The constructor resolves the clock period (the argument, else the
    design's), checks the scheduling mode (``"block"`` or ``"pipeline"``),
    defaults ``pipeline_ii`` to the design's and ``artifacts`` to the shared
    bundle of :meth:`PointArtifacts.of`.  In pipeline mode it computes the
    MII on the fastest grades, and ``pipeline_ii`` (the target II) defaults
    to it.  The flow then selects its grades, makes its scheduling call
    inside :meth:`timed_schedule` and hands the outcome to :meth:`finish`.
    """

    def __init__(self, flow: str, design: Design, library: Library,
                 clock_period: Optional[float], pipeline_ii: Optional[int],
                 scheduling: str, artifacts: Optional[PointArtifacts]):
        clock_period = clock_period or design.clock_period
        if clock_period is None:
            raise ReproError("a clock period is required (argument or design attribute)")
        if scheduling not in ("block", "pipeline"):
            raise ReproError(f"unknown scheduling mode {scheduling!r} "
                             f"(expected 'block' or 'pipeline')")
        self.start_time = time.perf_counter()
        self.flow = flow
        self.design = design
        self.library = library
        self.clock_period = clock_period
        self.scheduling = scheduling
        self.pipelined = scheduling == "pipeline"
        self.artifacts = (artifacts if artifacts is not None
                          else PointArtifacts.of(design))
        self.spans = self.artifacts.spans
        self.latency = self.artifacts.latency
        self.pipeline_ii = (pipeline_ii if pipeline_ii is not None
                            else design.pipeline_ii)
        self.mii: Optional[MIIResult] = None
        if self.pipelined:
            self.mii = compute_mii(design, library, clock_period,
                                   variant_map=grade_map(design, library,
                                                         "fastest"),
                                   spans=self.spans, latency=self.latency)
            if self.pipeline_ii is None:
                self.pipeline_ii = self.mii.mii
        self.scheduling_seconds = 0.0

    @contextmanager
    def timed_schedule(self):
        """The ``flow.schedule`` span; its wall time is ``scheduling_seconds``."""
        start = time.perf_counter()
        with _obs_span("flow.schedule", flow=self.flow, design=self.design.name,
                       scheduling=self.scheduling):
            yield
        self.scheduling_seconds = time.perf_counter() - start

    def finish(
        self,
        label: str,
        schedule: Schedule,
        allocation: Allocation,
        log: RelaxationLog,
        details: Dict[str, object],
        area_recovery: bool,
    ) -> FlowResult:
        """Record ``log`` in ``details`` and run the back end.

        ``details`` holds the flow's own entries; it gains
        ``relaxation_attempts``, ``resources_added`` and ``grade_upgrades``,
        in pipeline mode the achieved ``initiation_interval``, the
        ``ii_bumps`` and the MII's ``res_mii`` and ``rec_mii``, and with
        ``area_recovery`` the ``area_recovery_downgrades`` /
        ``area_recovery_saved`` tallies plus ``area_recovery_seconds`` (wall
        time of the recovery pass; wall-clock fields never enter
        ``DSEEntry.metrics()``).  The back end is datapath construction,
        within-state area recovery, state timing and the area/power
        reports; the result is labelled ``label``.  Area recovery hands
        over the timing report of the datapath it leaves, so the
        ``flow.timing`` span and its analysis run only without it.
        """
        design = self.design
        details["relaxation_attempts"] = log.attempts
        details["resources_added"] = list(log.resources_added)
        details["grade_upgrades"] = list(log.upgrades)
        # Only the modulo scheduler records the II it achieved.
        pipeline_ii = log.final_ii or self.pipeline_ii
        if self.mii is not None:
            details["initiation_interval"] = pipeline_ii
            details["ii_bumps"] = list(log.ii_bumps)
            details["res_mii"] = self.mii.res_mii
            details["rec_mii"] = self.mii.rec_mii

        with _obs_span("flow.bind", flow=label, design=design.name):
            datapath = build_datapath(design, self.library, schedule,
                                      pipeline_ii=pipeline_ii)
        if area_recovery:
            with _obs_span("flow.area_recovery", flow=label, design=design.name):
                recovery_start = time.perf_counter()
                recovery = recover_area(datapath)
                details["area_recovery_seconds"] = \
                    time.perf_counter() - recovery_start
            details["area_recovery_downgrades"] = recovery.downgrades
            details["area_recovery_saved"] = recovery.area_saved
            timing = recovery.timing
        else:
            with _obs_span("flow.timing", flow=label, design=design.name):
                timing = analyze_state_timing(datapath)
        with _obs_span("flow.report", flow=label, design=design.name):
            area = area_report(datapath)
            power = power_report(datapath)
        runtime = time.perf_counter() - self.start_time

        return FlowResult(
            flow=label,
            design_name=design.name,
            clock_period=self.clock_period,
            schedule=schedule,
            datapath=datapath,
            area=area,
            power=power,
            timing=timing,
            allocation=allocation,
            runtime_seconds=runtime,
            scheduling_seconds=self.scheduling_seconds,
            latency_steps=schedule.latency_steps(),
            meets_timing=timing.meets_timing(),
            details=details,
        )
