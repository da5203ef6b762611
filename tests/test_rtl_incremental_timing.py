"""Incremental state timing: patched reports must equal full recomputes.

The contract under test (see ``repro.rtl.incremental_timing``): after any
sequence of FU-instance variant changes, a report maintained by patching only
the touched states is *bit-for-bit equal* to a fresh
``analyze_state_timing`` run — and the incremental ``recover_area`` built on
top of it is observably equivalent to the original one-accept-per-round
full-recompute pass (kept as ``recover_area_reference``).
"""

import json
import random

import pytest

import repro.flows.pipeline as pipeline_mod
from repro.bind.binding import FUInstance
from repro.bind.interconnect import estimate_interconnect
from repro.errors import BindingError
from repro.flows import DesignPoint, conventional_flow, evaluate_point
from repro.ir.operations import OpKind
from repro.rtl.area_recovery import recover_area, recover_area_reference
from repro.rtl.incremental_timing import IncrementalStateTiming
from repro.rtl.timing import analyze_state_timing
from repro.workloads import fir_design, idct_design
from repro.workloads.factories import IDCTPointFactory


def _fresh_datapath(design, library, clock_period):
    """A bound datapath before any area recovery ran on it."""
    flow = conventional_flow(design, library, clock_period=clock_period,
                             area_recovery=False)
    return flow.datapath


def _resource_class(datapath, instance):
    kind_value, width = instance.class_key
    return datapath.library.class_for(OpKind(kind_value), width)


def _assert_reports_identical(actual, expected):
    """Exact (bit-for-bit) equality of every report field."""
    assert actual.clock_period == expected.clock_period
    assert actual.state_critical_path == expected.state_critical_path
    assert actual.op_start == expected.op_start
    assert actual.op_finish == expected.op_finish
    assert actual.op_slack == expected.op_slack


# -- report patching ---------------------------------------------------------------


def test_initial_report_matches_full_analysis(small_idct, library):
    datapath = _fresh_datapath(small_idct, library, 1500.0)
    analyzer = IncrementalStateTiming(datapath)
    _assert_reports_identical(analyzer.report, analyze_state_timing(datapath))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_patched_report_equals_full_recompute_exactly(small_idct, library, seed):
    """Random walks over the variant space, patching one instance at a time."""
    datapath = _fresh_datapath(small_idct, library, 1500.0)
    analyzer = IncrementalStateTiming(datapath)
    rng = random.Random(seed)
    instances = [i for i in datapath.binding.instances if i.ops]
    for _ in range(25):
        instance = rng.choice(instances)
        grades = _resource_class(datapath, instance).variants
        instance.variant = rng.choice(list(grades))
        analyzer.patch_instance(instance.name)
        _assert_reports_identical(analyzer.report, analyze_state_timing(datapath))


def test_snapshot_restore_reverts_a_trial_exactly(small_fir, library):
    datapath = _fresh_datapath(small_fir, library, 1500.0)
    analyzer = IncrementalStateTiming(datapath)
    before = analyze_state_timing(datapath)
    instance = next(i for i in datapath.binding.instances if i.ops)
    edges = analyzer.instance_edges(instance.name)
    saved = analyzer.snapshot(edges)
    original = instance.variant
    slower = _resource_class(datapath, instance).next_slower(original)
    if slower is None:
        pytest.skip("no slower grade available for the chosen instance")
    instance.variant = slower
    analyzer.recompute_edges(edges)
    instance.variant = original
    analyzer.restore(saved)
    _assert_reports_identical(analyzer.report, before)


def test_unknown_edges_are_rejected_consistently(small_fir, library):
    """snapshot() and recompute_edges() must agree on bad input: a silently
    empty snapshot would let restore() corrupt the cached report."""
    from repro.errors import TimingError

    datapath = _fresh_datapath(small_fir, library, 1500.0)
    analyzer = IncrementalStateTiming(datapath)
    with pytest.raises(TimingError):
        analyzer.recompute_edges(["no_such_edge"])
    with pytest.raises(TimingError):
        analyzer.snapshot(["no_such_edge"])


def test_instance_edges_index_matches_schedule(small_idct, library):
    datapath = _fresh_datapath(small_idct, library, 1500.0)
    for instance in datapath.binding.instances:
        expected = {datapath.schedule.edge_of(op) for op in instance.ops}
        assert datapath.instance_edges(instance.name) == expected
    with pytest.raises(BindingError):
        datapath.instance_edges("no_such_instance")


# -- recover_area equivalence -------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: idct_design(latency=12, rows=1, clock_period=1500.0),
    lambda: idct_design(latency=8, rows=1, clock_period=1500.0),
    lambda: fir_design(taps=8, latency=6, clock_period=1500.0),
])
def test_incremental_recovery_equals_reference(build, library):
    reference_dp = _fresh_datapath(build(), library, 1500.0)
    incremental_dp = _fresh_datapath(build(), library, 1500.0)

    reference = recover_area_reference(reference_dp)
    incremental = recover_area(incremental_dp)

    assert incremental.downgrades == reference.downgrades
    assert incremental.area_before == reference.area_before
    assert incremental.area_after == reference.area_after
    # Acceptances may interleave differently across independent instance
    # groups, but the set of downgraded instances and every final grade must
    # agree.
    assert set(incremental.changed_instances) == set(reference.changed_instances)
    ref_variants = {i.name: i.variant.name
                    for i in reference_dp.binding.instances}
    inc_variants = {i.name: i.variant.name
                    for i in incremental_dp.binding.instances}
    assert inc_variants == ref_variants
    _assert_reports_identical(analyze_state_timing(incremental_dp),
                              analyze_state_timing(reference_dp))


@pytest.mark.parametrize("build", [
    lambda: idct_design(latency=12, rows=1, clock_period=1500.0),
    lambda: idct_design(latency=8, rows=2, clock_period=1500.0),
    lambda: fir_design(taps=8, latency=6, clock_period=1500.0),
])
def test_recovery_leaves_the_interconnect_estimate_equal(build, library):
    """The interconnect estimate reads the binding and the registers but no
    grade, so after area recovery the datapath's estimate still equals a
    fresh one (the flows do not re-estimate it)."""
    datapath = _fresh_datapath(build(), library, 1500.0)
    before = datapath.interconnect
    assert recover_area(datapath).downgrades > 0
    assert datapath.interconnect is before
    fresh = estimate_interconnect(datapath.design, datapath.library,
                                  datapath.schedule, datapath.binding,
                                  datapath.registers)
    assert fresh == before


def test_recovery_skips_datapaths_that_fail_timing(small_fir, library):
    datapath = _fresh_datapath(small_fir, library, 1500.0)
    # Force a timing failure by overclocking the datapath far beyond reach.
    datapath.clock_period = 1.0
    datapath.schedule.clock_period = 1.0
    result = recover_area(datapath)
    assert result.downgrades == 0
    assert result.area_saved == 0.0


def test_op_less_instances_are_never_downgraded(small_fir, library):
    """An instance bound to no operations carries no timing evidence; the old
    ``min(..., default=0.0)`` let a zero-delay-increase downgrade of such an
    instance through.  It must now be skipped outright."""
    datapath = _fresh_datapath(small_fir, library, 1500.0)
    template = next(i for i in datapath.binding.instances if i.ops)
    resource_class = _resource_class(datapath, template)
    fastest = resource_class.variants[0]
    ghost = FUInstance(name="ghost_u0", class_key=template.class_key,
                       variant=fastest, ops=[], steps=set())
    datapath.binding.instances.append(ghost)
    datapath._instance_edges = None  # rebuilt with the hand-added instance
    result = recover_area(datapath)
    assert ghost.variant is fastest
    assert "ghost_u0" not in result.changed_instances


# -- flow-level byte-identical guard ------------------------------------------------


def test_flow_metrics_byte_identical_to_reference_recovery(library, monkeypatch):
    """Both flows, run end to end, must produce byte-identical
    ``DSEEntry.metrics()`` whether area recovery runs incrementally or via
    the full-recompute reference (ISSUE 2 acceptance criterion)."""
    factory = IDCTPointFactory(rows=1)
    points = [DesignPoint(name="N12", latency=12, clock_period=1500.0),
              DesignPoint(name="P8", latency=8, pipeline_ii=4,
                          clock_period=1500.0)]
    incremental = [evaluate_point(factory, library, p).metrics()
                   for p in points]
    monkeypatch.setattr(pipeline_mod, "recover_area", recover_area_reference)
    reference = [evaluate_point(factory, library, p).metrics() for p in points]
    assert (json.dumps(incremental, sort_keys=True)
            == json.dumps(reference, sort_keys=True))
