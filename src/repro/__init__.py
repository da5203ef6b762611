"""repro — reproduction of Kondratyev et al., "Exploiting Area/Delay Tradeoffs
in High-Level Synthesis", DATE 2012.

The package implements a complete high-level-synthesis (HLS) research stack:

* :mod:`repro.ir` — behavioral intermediate representation (control-flow graph,
  data-flow graph, operations, builder API and transforms).
* :mod:`repro.lib` — multi-speed-grade resource libraries (area/delay
  tradeoff curves per operation kind and bit width).
* :mod:`repro.core` — the paper's contribution: multi-cycle behavioral timing
  analysis (timed DFG, sequential slack, aligned slack), slack budgeting and
  the slack-guided scheduler.
* :mod:`repro.sched`, :mod:`repro.bind` — scheduling and binding substrates.
* :mod:`repro.rtl` — datapath construction, area/timing/power models and the
  conventional post-scheduling area-recovery pass (the baseline flow's
  "logic synthesis" stand-in).
* :mod:`repro.flows` — end-to-end conventional and slack-based flows plus the
  design-space-exploration harness used to regenerate the paper's tables.
* :mod:`repro.explore` — the exploration layer on top of the sweeps:
  adaptive Pareto-front recovery with far fewer flow evaluations, a
  persistent fingerprint-keyed result store, frontier comparison across
  workloads/flows and the ``repro explore`` CLI.
* :mod:`repro.workloads` — the paper's kernels (interpolation, resizer, IDCT)
  and additional public-style kernels.
* :mod:`repro.verify` — differential scenario fuzzing over the paired
  engines, with shrinking and a replayable failure corpus (``repro
  verify``; CI's per-PR smoke and the nightly fuzz shards).
* :mod:`repro.serve` — the memoizing multi-tenant DSE service: a
  persistent job queue, a retry/deadline policy around every job and a
  shared fingerprint-keyed memo tier, behind plain-callable endpoints, a
  stdlib HTTP front end and ``repro serve``.
* :mod:`repro.obs` — observability: hierarchical span tracing, the
  process-wide metrics registry, phase profiling and trace export
  (``repro profile``, ``--trace-out``).  Observation-only by contract:
  tracing never changes a flow result.

Quickstart::

    from repro.workloads import interpolation_design
    from repro.lib import tsmc90_library
    from repro.flows import conventional_flow, slack_based_flow

    design = interpolation_design(unroll=4)
    library = tsmc90_library()
    conv = conventional_flow(design, library, clock_period=1100.0)
    prop = slack_based_flow(design, library, clock_period=1100.0)
    print(conv.area, prop.area)
"""

from repro._version import __version__
from repro.errors import (
    ReproError,
    IRError,
    LibraryError,
    TimingError,
    SchedulingError,
    BindingError,
    InfeasibleDesignError,
    DeadlineExceeded,
)

#: The curated top-level API: evaluation sessions, sweep harnesses, the
#: exploration layer and the differential-oracle registry.  Resolved lazily
#: (PEP 562) so ``import repro`` stays light and the subsystem import graphs
#: stay acyclic; ``repro.<name>`` triggers the real import on first access.
_PUBLIC_API = {
    # flows: the evaluation/session layer
    "SweepSession": "repro.flows.sweep",
    "SweepStats": "repro.flows.sweep",
    "sweep_plan": "repro.flows.sweep",
    "DesignPoint": "repro.flows.dse",
    "DSEEntry": "repro.flows.dse",
    "DSEResult": "repro.flows.dse",
    "evaluate_point": "repro.flows.dse",
    "run_dse": "repro.flows.dse",
    "idct_design_points": "repro.flows.dse",
    "latency_grid": "repro.flows.dse",
    "PointArtifacts": "repro.flows.pipeline",
    "conventional_flow": "repro.flows.conventional",
    "slack_based_flow": "repro.flows.slack_based",
    # exploration layer
    "AdaptiveExplorer": "repro.explore.adaptive",
    "RefinementPolicy": "repro.explore.adaptive",
    "ResultStore": "repro.explore.store",
    # serve layer (the memoizing multi-tenant DSE service)
    "DSEService": "repro.serve.service",
    "JobSpec": "repro.serve.jobs",
    "MemoCache": "repro.serve.cache",
    "RetryPolicy": "repro.serve.retry",
    # verification layer (the oracle registry drives fuzzing and the CLI)
    "ORACLES": "repro.verify.oracles",
    "Oracle": "repro.verify.oracles",
    "oracle": "repro.verify.oracles",
    # observability layer (tracing, metrics, phase profiling)
    "Tracer": "repro.obs.trace",
    "tracing": "repro.obs.trace",
    "cache_stats": "repro.obs.metrics",
    "profile_report": "repro.obs.profile",
}

__all__ = [
    "__version__",
    "ReproError",
    "IRError",
    "LibraryError",
    "TimingError",
    "SchedulingError",
    "BindingError",
    "InfeasibleDesignError",
    "DeadlineExceeded",
] + sorted(_PUBLIC_API)


def __getattr__(name: str):
    module_name = _PUBLIC_API.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: subsequent accesses skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_PUBLIC_API))
