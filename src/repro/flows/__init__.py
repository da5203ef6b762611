"""End-to-end HLS flows and the design-space-exploration harness.

* :func:`conventional_flow` — the baseline of the paper: fastest resources,
  mobility-driven list scheduling, binding, then RTL-style within-state area
  recovery.  With ``initial_grades="slowest"`` it becomes the paper's
  "Case 2" strategy (slowest resources, upgraded on the fly).
* :func:`slack_based_flow` — the proposed flow: slack budgeting, slack-guided
  scheduling with per-edge re-budgeting, grade-aware binding, area recovery.
* :mod:`repro.flows.dse` — sweeps latency/pipelining design points and runs
  both flows on each (paper Table 4 and the §VII power/throughput ranges),
  plus :func:`scenario_sweep` for kernel/random workload suites.
* :mod:`repro.flows.sweep` — :class:`SweepSession`, the one loop that
  evaluates a list of points: interned designs, shared artifact bundles,
  delta-friendly visit order, per-point failure isolation and an optional
  process pool (bit-for-bit equal to per-point evaluation; the
  ``sweep-session`` oracle fuzzes that equivalence).
* :mod:`repro.flows.pipeline` — what the two flows share: the per-point
  analyses (:class:`PointArtifacts`, also used by the sweep harnesses) and
  the one flow driver (:class:`~repro.flows.pipeline.FlowRun`), which
  resolves the clock, the scheduling mode and the MII, times the
  ``flow.schedule`` span and runs the back end.  The flows themselves keep
  only their grade selection and their scheduling call.
* :mod:`repro.flows.report` — text tables matching the paper's layout.

The exploration layer (:mod:`repro.explore`) builds on these: adaptive
Pareto-guided sweeps, a persistent result store and frontier analytics.
"""

from repro.flows.result import FlowResult
from repro.flows.pipeline import PointArtifacts
from repro.flows.conventional import conventional_flow
from repro.flows.slack_based import slack_based_flow
from repro.flows.dse import (
    DesignPoint,
    DSEEntry,
    DSEResult,
    PointFailure,
    SweepScenario,
    evaluate_point,
    latency_grid,
    run_dse,
    idct_design_points,
    scenario_sweep,
)
from repro.flows.sweep import (
    SweepSession,
    SweepStats,
    knob_distance,
    sweep_plan,
)
from repro.flows.report import (
    fmt_metric,
    format_markdown_table,
    format_table,
    table1_rows,
    table2_rows,
    table4_rows,
    table5_rows,
)

__all__ = [
    "FlowResult",
    "PointArtifacts",
    "conventional_flow",
    "slack_based_flow",
    "DesignPoint",
    "DSEEntry",
    "DSEResult",
    "PointFailure",
    "evaluate_point",
    "latency_grid",
    "run_dse",
    "idct_design_points",
    "SweepSession",
    "SweepStats",
    "sweep_plan",
    "knob_distance",
    "SweepScenario",
    "scenario_sweep",
    "fmt_metric",
    "format_markdown_table",
    "format_table",
    "table1_rows",
    "table2_rows",
    "table4_rows",
    "table5_rows",
]
