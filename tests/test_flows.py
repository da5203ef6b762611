"""End-to-end tests of the conventional and slack-based flows and the DSE."""

import pickle
from types import SimpleNamespace

import pytest

from repro.errors import ReproError
from repro.flows import (
    DesignPoint,
    DSEEntry,
    DSEResult,
    conventional_flow,
    format_table,
    idct_design_points,
    run_dse,
    scenario_sweep,
    slack_based_flow,
    table1_rows,
    table2_rows,
    table4_rows,
    table5_rows,
)
from repro.workloads import (
    IDCTPointFactory,
    KernelPointFactory,
    RandomPointFactory,
    idct_design,
    interpolation_design,
)


def test_conventional_flow_on_interpolation(interpolation, library):
    result = conventional_flow(interpolation, library, clock_period=1100.0)
    assert result.flow == "conventional"
    assert result.meets_timing
    assert result.schedule.is_complete()
    assert result.total_area > 0
    assert result.latency_steps <= 3
    assert result.scheduling_seconds <= result.runtime_seconds
    summary = result.summary()
    assert summary["design"] == interpolation.name


def test_flow_requires_a_clock_period(interpolation, library):
    clone = interpolation.copy()
    clone.clock_period = None
    with pytest.raises(ReproError):
        conventional_flow(clone, library)


def test_slowest_first_flow_is_labelled(interpolation, library):
    result = conventional_flow(interpolation, library, clock_period=1100.0,
                               initial_grades="slowest")
    assert result.flow == "slowest-first"
    assert result.meets_timing


def test_unknown_initial_grades_are_rejected(interpolation, library):
    # Any name but the two grade sets must not quietly run the fastest flow.
    for grades in ("Slowest", "fast", ""):
        with pytest.raises(ReproError, match="initial grades"):
            conventional_flow(interpolation, library, clock_period=1100.0,
                              initial_grades=grades)


def test_slack_flow_saves_area_on_interpolation(interpolation, library):
    conv = conventional_flow(interpolation, library, clock_period=1100.0)
    slack = slack_based_flow(interpolation, library, clock_period=1100.0)
    assert slack.meets_timing
    assert slack.total_area < conv.total_area
    # The motivating example promises a large gap (the paper reports ~36 %).
    saving = (conv.total_area - slack.total_area) / conv.total_area
    assert saving > 0.10
    assert slack.details["rebudget_count"] >= 1


def test_flows_on_idct_point(small_idct, library):
    conv = conventional_flow(small_idct, library, clock_period=1500.0)
    slack = slack_based_flow(small_idct, library, clock_period=1500.0)
    assert conv.meets_timing and slack.meets_timing
    assert conv.schedule.is_complete() and slack.schedule.is_complete()
    # The headline claim: the slack-based flow is not larger on a
    # moderately-utilised IDCT point.
    assert slack.total_area <= conv.total_area * 1.02


def test_pipelined_point_uses_more_area_than_unpipelined(library):
    base = idct_design(latency=16, rows=1, clock_period=1500.0)
    piped = idct_design(latency=16, rows=1, clock_period=1500.0, pipeline_ii=4)
    conv = conventional_flow(base, library, clock_period=1500.0)
    conv_piped = conventional_flow(piped, library, clock_period=1500.0, pipeline_ii=4)
    assert conv_piped.total_area > conv.total_area
    assert conv_piped.power.throughput > conv.power.throughput


def test_idct_design_points_cover_the_paper_sweep():
    points = idct_design_points()
    assert len(points) == 15
    names = [p.name for p in points]
    assert names[0] == "D1" and names[-1] == "D15"
    latencies = {p.latency for p in points}
    assert min(latencies) == 8 and max(latencies) == 32
    assert any(p.pipeline_ii is not None for p in points)
    assert any(p.pipeline_ii is None for p in points)


def test_run_dse_small_sweep(library):
    points = [
        DesignPoint(name="P1", latency=12, clock_period=1500.0),
        DesignPoint(name="P2", latency=20, clock_period=1500.0),
    ]
    result = run_dse(
        lambda point: idct_design(latency=point.latency, rows=1,
                                  clock_period=point.clock_period,
                                  pipeline_ii=point.pipeline_ii),
        library, points,
    )
    assert len(result.entries) == 2
    assert result.wall_time_seconds > 0
    assert result.area_range() >= 1.0
    assert result.throughput_range() >= 1.0
    assert result.wins() + result.losses() <= 2
    header, rows = table4_rows(result)
    assert rows[-1][0] == "Average"
    assert len(rows) == 3


def test_run_dse_rejects_bad_scheduling_mode(library):
    # run_dse always runs block scheduling; the session every sweep runs
    # through is what validates a mode.
    from repro.flows.sweep import SweepSession

    with pytest.raises(ReproError, match="unknown scheduling mode"):
        SweepSession(lambda p: idct_design(latency=8, rows=1), library,
                     scheduling="overlapped")


def test_report_tables(interpolation, library):
    header, rows = table1_rows(library)
    assert rows[0][2:] == ["430", "470", "510", "540", "570", "610"]
    assert rows[1][2:] == ["878", "662", "618", "575", "545", "510"]
    assert rows[2][2:] == ["220", "400", "580", "760", "940", "1220"]
    assert rows[3][2:] == ["556", "254", "225", "216", "210", "206"]

    conv = conventional_flow(interpolation, library, clock_period=1100.0)
    slack = slack_based_flow(interpolation, library, clock_period=1100.0)
    header2, rows2 = table2_rows(conv, conv, slack)
    assert len(rows2) == 3

    header5, rows5 = table5_rows(1.0, 1.2, 10.0)
    assert rows5[0] == ["1.00", "1.20", "10.00"]

    text = format_table(header, rows, title="Table 1")
    assert "Table 1" in text and "Mul 8*8bit" in text


# -- scenario sweeps ---------------------------------------------------------------


def test_scenario_sweep_is_diverse_and_picklable():
    scenarios = scenario_sweep()
    names = [scenario.name for scenario in scenarios]
    assert len(names) == len(set(names))
    # Kernels and random designs at several sizes are both represented.
    assert sum(1 for s in scenarios if isinstance(s.factory, KernelPointFactory)) >= 5
    randoms = [s.factory for s in scenarios
               if isinstance(s.factory, RandomPointFactory)]
    assert len({(f.layers, f.ops_per_layer) for f in randoms}) >= 3
    for scenario in scenarios:
        assert len(scenario.points) >= 2
        pickle.dumps(scenario.factory)  # process-pool ready


# -- DSEResult range semantics ------------------------------------------------------


def fake_entry(area: float, power: float, throughput: float) -> DSEEntry:
    flow = SimpleNamespace(total_area=area, total_power=power,
                           throughput=throughput)
    return DSEEntry(point=DesignPoint(name=f"F{id(flow)}", latency=8),
                    conventional=flow, slack_based=flow)


def test_ranges_of_an_empty_sweep_raise():
    empty = DSEResult()
    for method in (empty.area_range, empty.power_range, empty.throughput_range,
                   empty.average_saving_percent):
        with pytest.raises(ReproError, match="empty sweep"):
            method()


def test_ranges_with_zero_valued_entries_raise_distinctly():
    broken = DSEResult(entries=[fake_entry(100.0, 1.0, 2.0),
                                fake_entry(0.0, 0.0, 0.0)])
    for method in (broken.area_range, broken.power_range,
                   broken.throughput_range):
        with pytest.raises(ReproError, match="non-positive"):
            method()


def test_ranges_of_a_healthy_sweep_are_ratios():
    healthy = DSEResult(entries=[fake_entry(100.0, 2.0, 5.0),
                                 fake_entry(50.0, 1.0, 10.0)])
    assert healthy.area_range() == pytest.approx(2.0)
    assert healthy.power_range() == pytest.approx(2.0)
    assert healthy.throughput_range() == pytest.approx(2.0)


# -- private bundles (the pipeline-cache oracle's substrate) -----------------------


def test_evaluate_point_use_cache_false_builds_private_artifacts(library,
                                                                 monkeypatch):
    import repro.flows.dse as dse_mod
    from repro.flows.pipeline import PointArtifacts

    calls = {"build": 0, "of": 0}
    real_build, real_of = PointArtifacts.build, PointArtifacts.of
    monkeypatch.setattr(
        PointArtifacts, "build",
        classmethod(lambda cls, design: calls.__setitem__(
            "build", calls["build"] + 1) or real_build.__func__(cls, design)))
    monkeypatch.setattr(
        PointArtifacts, "of",
        classmethod(lambda cls, design: calls.__setitem__(
            "of", calls["of"] + 1) or real_of.__func__(cls, design)))

    point = DesignPoint(name="P0", latency=10, clock_period=1500.0)
    dse_mod.evaluate_point(IDCTPointFactory(rows=1), library, point)
    assert calls["build"] >= 1 and calls["of"] == 0
