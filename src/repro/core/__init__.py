"""Core algorithms of the paper.

* :mod:`repro.core.latency` — latency between CFG edges (Definition 1 of
  Section V): minimum number of state nodes on any forward path.
* :mod:`repro.core.opspan` — operation spans (Definition 4 of Section IV):
  the set of CFG edges an operation may legally be scheduled on.
* :mod:`repro.core.timed_dfg` — the timed DFG (Definition 2 of Section V).
* :mod:`repro.core.sequential_slack` — sequential arrival/required times and
  slack (Definitions 3/4 of Section V), plus the clock-boundary-aware
  *aligned* slack.
* :mod:`repro.core.bellman_ford` — the constraint-graph / Bellman-Ford
  formulation used as the run-time baseline in the paper's Table 5.
* :mod:`repro.core.budgeting` — slack budgeting (Figure 7): selects a speed
  grade for every operation from the library's area/delay curves.
* :mod:`repro.core.feasibility` — Proposition 1 feasibility checks.
* :mod:`repro.core.slack_scheduler` — the enhanced scheduling framework of
  Figure 8 (slack-guided scheduling with re-budgeting after every edge).
* :mod:`repro.core.analysis_cache` — keyed, bounded caches for the pure
  per-design analyses (point artifacts, pinned spans/timed DFGs,
  sequential-slack results) shared by the flows and the sweep sessions.
* :mod:`repro.core.graphkit` — the compact CSR graph substrate the timing
  kernels run on (interned node indices, array-backed adjacency, cached
  topological orders); the ``*_reference`` functions keep the original
  dict-based implementations as executable specifications.
"""

from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans, SpanInfo
from repro.core.timed_dfg import TimedDFG, TimedEdge, build_timed_dfg
from repro.core.graphkit import CompactTimedGraph, kernel_vs_reference_problems
from repro.core.sequential_slack import (
    TimingResult,
    compute_sequential_slack,
    compute_sequential_slack_reference,
    compute_arrival_times,
    compute_required_times,
)
from repro.core.analysis_cache import AnalysisCache, default_cache, design_fingerprint
from repro.core.bellman_ford import (
    compute_sequential_slack_bellman_ford,
    compute_sequential_slack_bellman_ford_reference,
)
from repro.core.budgeting import BudgetingResult, budget_slack
from repro.core.feasibility import FeasibilityReport, check_feasibility, schedule_from_arrival_times


def __getattr__(name):
    # SlackScheduler pulls in the scheduling substrate (repro.sched), which in
    # turn imports repro.core submodules; loading it lazily keeps
    # ``import repro.sched`` and ``import repro.core`` both cycle-free.
    if name in ("SlackScheduler", "SlackScheduleResult"):
        from repro.core import slack_scheduler

        return getattr(slack_scheduler, name)
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")


__all__ = [
    "LatencyAnalysis",
    "OperationSpans",
    "SpanInfo",
    "TimedDFG",
    "TimedEdge",
    "build_timed_dfg",
    "CompactTimedGraph",
    "kernel_vs_reference_problems",
    "TimingResult",
    "compute_sequential_slack",
    "compute_sequential_slack_reference",
    "compute_arrival_times",
    "compute_required_times",
    "compute_sequential_slack_bellman_ford",
    "compute_sequential_slack_bellman_ford_reference",
    "AnalysisCache",
    "default_cache",
    "design_fingerprint",
    "BudgetingResult",
    "budget_slack",
    "FeasibilityReport",
    "check_feasibility",
    "schedule_from_arrival_times",
    "SlackScheduler",
]
