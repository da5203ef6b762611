"""repro.explore — adaptive design-space exploration with Pareto analytics.

The exploration layer sits on top of the sweep session
(:mod:`repro.flows.sweep`) and turns raw sweeps into guided exploration:

* :mod:`repro.explore.pareto` — n-dimensional Pareto-front extraction over
  configurable objectives, (epsilon-)dominance, hypervolume, knee points
  and coverage;
* :mod:`repro.explore.adaptive` — :class:`AdaptiveExplorer`, a coarse-grid
  + guided-bisection driver that re-uses :class:`repro.flows.sweep.SweepSession`
  for batched evaluation and skips structurally identical points via
  :func:`repro.core.analysis_cache.design_fingerprint`;
* :mod:`repro.explore.store` — :class:`ResultStore`, an append-only,
  fingerprint-keyed JSONL store that makes repeated explorations across
  sessions and scenarios resume for free;
* :mod:`repro.explore.compare` — frontier diffs across flows and
  exploration modes;
* :mod:`repro.explore.report` — JSON / markdown frontier reports;
* :mod:`repro.explore.cli` — the ``repro explore`` subcommand.
"""

from repro.explore.pareto import (
    OBJECTIVE_SENSES,
    FrontPoint,
    coverage,
    dominates,
    epsilon_dominates,
    front_from_metrics,
    front_invariant_violations,
    hypervolume,
    knee_point,
    objective_vector,
    pareto_front,
    reference_point,
)
from repro.explore.adaptive import (
    AdaptiveExplorer,
    ExplorationResult,
    RefinementPolicy,
)
from repro.explore.store import ResultStore, StoreKey, key_for
from repro.explore.compare import (
    FrontierDiff,
    compare_flows,
    compare_frontiers,
    flow_frontiers,
)
from repro.explore.report import (
    frontier_report,
    frontier_rows,
    frontier_text_table,
    render_markdown,
    write_report,
)

__all__ = [
    "OBJECTIVE_SENSES",
    "FrontPoint",
    "coverage",
    "dominates",
    "epsilon_dominates",
    "front_from_metrics",
    "front_invariant_violations",
    "hypervolume",
    "knee_point",
    "objective_vector",
    "pareto_front",
    "reference_point",
    "AdaptiveExplorer",
    "ExplorationResult",
    "RefinementPolicy",
    "ResultStore",
    "StoreKey",
    "key_for",
    "FrontierDiff",
    "compare_flows",
    "compare_frontiers",
    "flow_frontiers",
    "frontier_report",
    "frontier_rows",
    "frontier_text_table",
    "render_markdown",
    "write_report",
]
