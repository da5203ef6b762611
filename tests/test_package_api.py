"""Smoke tests of the package-level API surface."""

import importlib
import inspect

import pytest

import repro
import repro.core as core
from repro.errors import (
    BindingError,
    InfeasibleDesignError,
    IRError,
    LibraryError,
    ReproError,
    SchedulingError,
    TimingError,
)


def test_version_is_exposed():
    assert repro.__version__
    assert repro.__version__.count(".") == 2


def test_exception_hierarchy():
    for exc in (IRError, LibraryError, TimingError, SchedulingError,
                BindingError, InfeasibleDesignError):
        assert issubclass(exc, ReproError)
    assert issubclass(InfeasibleDesignError, SchedulingError)


def test_core_lazy_exports():
    # SlackScheduler is loaded lazily to keep the core/sched import graph
    # acyclic; both the class and its result type must be reachable.
    assert core.SlackScheduler is not None
    assert core.SlackScheduleResult is not None
    with pytest.raises(AttributeError):
        core.does_not_exist  # noqa: B018


def test_top_level_reexports():
    # The curated public names promised by repro.__all__ must resolve.
    for name in repro.__all__:
        assert getattr(repro, name) is not None


#: The pinned top-level surface.  Removing or renaming any of these is a
#: breaking API change and must be deliberate (update this list in the same
#: change, with a deprecation path for the old name).
PINNED_SURFACE = {
    # errors
    "ReproError", "IRError", "LibraryError",
    "TimingError", "SchedulingError", "BindingError", "InfeasibleDesignError",
    "DeadlineExceeded",
    # flows / session API
    "SweepSession", "SweepStats", "sweep_plan",
    "DesignPoint", "DSEEntry", "DSEResult",
    "evaluate_point", "run_dse", "idct_design_points", "latency_grid",
    "PointArtifacts", "conventional_flow", "slack_based_flow",
    # exploration
    "AdaptiveExplorer", "RefinementPolicy", "ResultStore",
    # campaign layer
    "CampaignSpec", "plan_shards", "run_shard", "merge_shards",
    "trend_report",
    # serve layer
    "DSEService", "JobSpec", "MemoCache", "RetryPolicy",
    # verification
    "ORACLES", "Oracle", "oracle",
    # observability
    "Tracer", "tracing", "cache_stats", "profile_report",
}


def test_pinned_surface_is_promised_and_resolves():
    missing = PINNED_SURFACE - set(repro.__all__)
    assert not missing, f"pinned names missing from repro.__all__: {missing}"
    for name in sorted(PINNED_SURFACE):
        assert getattr(repro, name) is not None
    # Lazy resolution caches into the module namespace (PEP 562 fast path).
    assert "SweepSession" in vars(repro)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.definitely_not_an_api  # noqa: B018


def test_dir_lists_lazy_names():
    listing = dir(repro)
    assert "SweepSession" in listing
    assert "AdaptiveExplorer" in listing


#: The parameters of every entry point whose options were cut to what its
#: callers use, by ``module:attribute`` (a class stands for its constructor,
#: ``A.b`` for method ``b`` of class ``A``): the scheduling path, the back
#: end, the memo owners and the layers above them.  Each option listed is
#: set by a caller outside the tests, as CONTRIBUTING's "Surface needs a
#: caller" requires; adding or removing one is a deliberate API change, made
#: in this table in the same change.
ENTRY_POINT_PARAMETERS = {
    "repro.flows.conventional:conventional_flow": (
        "design", "library", "clock_period", "initial_grades", "pipeline_ii",
        "area_recovery", "artifacts", "scheduling"),
    "repro.flows.slack_based:slack_based_flow": (
        "design", "library", "clock_period", "margin_fraction", "pipeline_ii",
        "area_recovery", "artifacts", "scheduling"),
    "repro.core.slack_scheduler:SlackScheduler": (
        "design", "library", "clock_period", "margin_fraction", "pipeline_ii",
        "artifacts"),
    "repro.sched.relaxation:schedule_with_relaxation": (
        "design", "library", "clock_period", "variant_map", "spans",
        "latency", "priority", "pipeline_ii", "scheduler"),
    "repro.sched.relaxation:relax": (
        "design", "library", "clock_period", "failure", "variants",
        "allocation", "log"),
    "repro.sched.list_scheduler:try_list_schedule": (
        "design", "library", "clock_period", "variant_map", "allocation",
        "spans", "latency", "priority", "pipeline_ii", "post_edge_hook"),
    "repro.sched.modulo_scheduler:try_modulo_schedule": (
        "design", "library", "clock_period", "variant_map", "allocation",
        "spans", "latency", "priority", "pipeline_ii"),
    "repro.core.budgeting:budget_slack": (
        "design", "library", "clock_period", "margin_fraction", "graph",
        "initial_variants", "pinned_variants", "state"),
    "repro.sched.modulo_scheduler:compute_mii": (
        "design", "library", "clock_period", "variant_map", "spans",
        "latency"),
    "repro.sched.modulo_scheduler:compute_rec_mii": (
        "design", "delays", "clock_period", "spans", "latency"),
    "repro.core.timed_dfg:build_timed_dfg": ("design", "spans", "latency"),
    "repro.core.timed_dfg:build_cyclic_timed_dfg": (
        "design", "ii", "spans", "latency"),
    # The back end the flows run after scheduling.
    "repro.bind.binding:bind_operations": (
        "design", "library", "schedule", "pipeline_ii"),
    "repro.rtl.timing:analyze_state_timing": ("datapath",),
    "repro.rtl.timing:analyze_state_timing_reference": ("datapath",),
    "repro.rtl.timing:usable_clock_period": ("datapath",),
    "repro.rtl.timing:StateTimingKernel": ("datapath",),
    "repro.rtl.timing:StateTimingReport.meets_timing": ("self",),
    "repro.rtl.timing:StateTimingReport.violations": ("self",),
    "repro.rtl.incremental_timing:IncrementalStateTiming": ("datapath",),
    "repro.rtl.incremental_timing:IncrementalStateTiming.edges_meet_timing": (
        "self", "edges"),
    "repro.rtl.area_recovery:recover_area": ("datapath",),
    "repro.rtl.area_recovery:recover_area_reference": ("datapath",),
    "repro.sched.schedule:Schedule.validate": ("self",),
    # The memo owners: no cache is a parameter (the process-wide tables
    # belong to AnalysisCache, a sweep's bundles to its session).
    "repro.flows.sweep.session:SweepSession": (
        "design_factory", "library", "margin_fraction", "scheduling"),
    "repro.flows.dse:evaluate_point": (
        "design_factory", "library", "point", "margin_fraction",
        "scheduling"),
    "repro.flows.pipeline:PointArtifacts.of": ("design",),
    "repro.core.analysis_cache:AnalysisCache": (),
    # The library: one characterisation, with the paper's Table-1 classes.
    "repro.lib.tsmc90:tsmc90_library": (),
    "repro.lib.characterize:characterize_class": ("kind", "width", "model"),
    "repro.lib.tsmc90:_class_from_points": ("kind", "width", "points"),
    "repro.lib.library:Library.add_class": ("self", "resource_class"),
    # The sweep harness and its reports.
    "repro.flows.dse:DSEResult.area_range": ("self",),
    "repro.flows.dse:DSEResult.power_range": ("self",),
    "repro.flows.dse:latency_grid": ("low", "high", "clock_period"),
    "repro.flows.dse:run_dse": ("design_factory", "library", "points"),
    "repro.flows.dse:scenario_sweep": ("clock_period",),
    "repro.flows.report:fmt_metric": ("value", "spec"),
    # Exploration: latency sweeps only; II sweeps run through SweepSession.
    "repro.explore.adaptive:AdaptiveExplorer": (
        "design_factory", "library", "latencies", "clock_period",
        "margin_fraction", "objectives", "flow", "policy", "store",
        "workload", "evaluator", "workers"),
    "repro.explore.adaptive:RefinementPolicy": ("coarse_points", "width_stop"),
    "repro.explore.compare:compare_flows": ("metrics_list",),
    "repro.explore.compare:flow_frontiers": ("metrics_list",),
    "repro.explore.pareto:reference_point": ("points",),
    # Observability: tracing() is the one switch.
    "repro.obs.trace:tracing": (),
    "repro.obs.export:chrome_trace_events": ("roots",),
    "repro.obs.export:write_chrome_trace": ("roots", "path"),
    "repro.obs.profile:profile_report": ("roots", "wall_seconds", "top"),
    # The IR helpers.
    "repro.ir.cfg:CFG.classify_backward_edges": ("self",),
    "repro.ir.dot:cfg_to_dot": ("cfg",),
    "repro.ir.dot:dfg_to_dot": ("dfg",),
    "repro.ir.transforms.unroll:unroll_loop": ("design", "factor"),
    # Serving: fixed backoff constants, a fixed worker join timeout.
    "repro.serve.retry:RetryPolicy": ("max_attempts", "deadline_seconds"),
    "repro.serve.retry:RetryPolicy.backoff_sequence": ("self",),
    "repro.serve.service:DSEService.stop_workers": ("self",),
    # Fuzzing: always on the default library, with fixed draw bounds.
    "repro.verify.runner:run_fuzz": (
        "seed", "iterations", "budget_seconds", "oracle_names", "corpus",
        "shrink", "shrink_evaluations", "profile", "oracle_deadline_seconds"),
    "repro.verify.runner:replay_corpus": ("corpus", "oracle_names"),
    "repro.verify.scenarios:ScenarioProfile": (
        "max_segments", "diamond_probability", "pipeline_probability"),
}


def test_scheduling_entry_points_keep_their_parameters():
    found = {}
    for target in ENTRY_POINT_PARAMETERS:
        module_name, attribute = target.split(":")
        entry = importlib.import_module(module_name)
        for name in attribute.split("."):
            entry = getattr(entry, name)
        found[target] = tuple(inspect.signature(entry).parameters)
    assert found == ENTRY_POINT_PARAMETERS
