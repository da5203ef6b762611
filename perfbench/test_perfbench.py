"""Unit tests of the benchmark's own logic, on tiny inputs.

    python3 -m pytest perfbench -q

They live outside ``tests/`` and ``benchmarks/`` so the repository's test
suite never runs a workload.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import layers  # noqa: E402
import stats  # noqa: E402


# -- the percentile rule -------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (15, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90),
    (1000, 99), (10000, 99.9),
])
def test_highest_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.highest_percentile(count) == expected


def test_spread_is_interquartile_share_of_median():
    assert stats.spread([1.0]) == 0.0
    assert stats.spread([10.0] * 10) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 10.0, 10.0, 10.0, 9.5, 10.5]
    assert 0.0 < stats.spread(values) < 0.1


def test_calibration_time_is_median_of_fastest_per_position():
    import run

    # Fastest per position over the repetitions: 2, 1, 4; their median: 2.
    assert run.calibration_time([[3.0, 1.0, 5.0], [2.0, 4.0, 4.0]]) == 2.0
    assert run.calibration_time([[7.0]]) == 7.0


def test_digest_ignores_key_order():
    assert stats.digest({"a": 1, "b": [2, 3]}) == \
        stats.digest({"b": [2, 3], "a": 1})
    assert stats.digest([1, 2]) != stats.digest([2, 1])


# -- the self-time partition ---------------------------------------------------


def _span_tree(tracer):
    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        traced_leaf()
        traced_leaf()

    def root():
        traced_middle()
        time.sleep(0.001)
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("root", root)()


def test_self_times_partition_the_root_span():
    tracer = layers.Tracer()
    _span_tree(tracer)
    totals = layers.span_totals(tracer.spans)
    assert totals["leaf"]["calls"] == 3
    assert totals["middle"]["calls"] == 1
    root = tracer.spans[0]
    assert root.name == "root" and root.parent == -1
    self_sum = sum(entry["self_s"] for entry in totals.values())
    assert self_sum == pytest.approx(root.duration, rel=1e-9, abs=1e-12)
    # A leaf's self time is its whole duration; a parent's excludes children.
    assert totals["leaf"]["self_s"] == pytest.approx(totals["leaf"]["s"])
    assert totals["middle"]["self_s"] < totals["middle"]["s"]


def test_raising_call_is_timed_as_failed_and_unwinds_the_stack():
    tracer = layers.Tracer()

    def boom():
        raise RuntimeError("no")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    tracer.wrap("after", lambda: None)()
    totals = layers.span_totals(tracer.spans)
    assert totals["boom"]["failed_s"] == totals["boom"]["s"] > 0
    assert tracer.spans[1].parent == -1


def test_install_rebinds_every_import_site_and_uninstall_restores():
    import repro.flows.pipeline as pipeline
    import repro.rtl.area as area

    original = area.area_report
    tracer = layers.Tracer()
    uninstall = layers.install(
        tracer, [("repro.rtl.area", "area_report", "rtl.report", None)])
    try:
        assert area.area_report is not original
        assert pipeline.area_report is area.area_report
        assert pipeline.area_report.__wrapped__ is original
    finally:
        uninstall()
    assert area.area_report is original
    assert pipeline.area_report is original


# -- failure counting ----------------------------------------------------------


def test_infeasible_point_is_counted_and_the_sweep_goes_on():
    import suite
    from repro.flows import SweepSession
    from repro.lib.tsmc90 import tsmc90_library
    from repro.verify.scenarios import ScenarioSpec

    # A 32-bit multiply needs more than a 1200 ps clock at any grade.
    spec = ScenarioSpec(seed=0, inputs=(32, 32),
                        segments=(("linear", (("mul", 0, 1),)),))
    points = [spec.point("relaxed", clock_period=3000.0),
              spec.point("too-fast", clock_period=1200.0)]
    session = SweepSession(spec.factory(), tsmc90_library())
    outcome = suite._run_sweep(session, points, [0, 1], None, None)
    assert outcome.attempted == 2
    assert [failure["unit"] for failure in outcome.failures] == ["too-fast"]
    assert outcome.failures[0]["error"] == "InfeasibleDesignError"
    assert outcome.failures[0]["message"]
    assert outcome.problems == []
    assert len(outcome.cold_ms) == 2 and outcome.warm_ms == []
    assert stats.ratio(len(outcome.failures), outcome.attempted) == 0.5
