"""Tests of frontier comparison and the frontier reports."""

import json

import pytest

from repro.errors import ReproError
from repro.explore.adaptive import ExplorationResult
from repro.explore.compare import (
    compare_flows,
    compare_frontiers,
    flow_frontiers,
)
from repro.explore.pareto import FrontPoint, pareto_front
from repro.explore.report import (
    frontier_report,
    frontier_rows,
    render_markdown,
    write_report,
)

OBJECTIVES = ("latency_steps", "area")


def points(vectors, labels=None):
    return [FrontPoint(label=(labels[i] if labels else f"p{i}"),
                       objectives=OBJECTIVES,
                       values=tuple(float(v) for v in vector))
            for i, vector in enumerate(vectors)]


def metrics_record(name, latency, slack_area, conv_area):
    flow = {"power": 1.0, "throughput": 1.0 / latency,
            "latency_steps": latency, "meets_timing": True,
            "fu_instances": 1, "registers": 1}
    return {
        "point": {"name": name, "latency": latency, "pipeline_ii": None,
                  "clock_period": 1500.0},
        "slack_based": dict(flow, area=slack_area),
        "conventional": dict(flow, area=conv_area),
        "saving_percent": 100.0 * (conv_area - slack_area) / conv_area,
    }


class TestCompareFrontiers:
    def test_identical_frontiers(self):
        front = points([[4, 100], [8, 50]])
        diff = compare_frontiers(front, front)
        assert diff.coverage_ab == diff.coverage_ba == 1.0
        assert diff.only_in_a == [] and diff.only_in_b == []
        assert diff.hypervolume_a == pytest.approx(diff.hypervolume_b)
        assert diff.hypervolume_ratio == pytest.approx(1.0)

    def test_strictly_better_frontier_dominates_the_diff(self):
        better = points([[4, 80], [8, 40]], labels=["b1", "b2"])
        worse = points([[4, 100], [8, 50]], labels=["w1", "w2"])
        diff = compare_frontiers(better, worse, name_a="better", name_b="worse")
        assert diff.coverage_ab == 1.0      # better covers all of worse
        assert diff.coverage_ba == 0.0      # worse covers none of better
        assert [p.label for p in diff.only_in_a] == ["b1", "b2"]
        assert diff.only_in_b == []
        assert diff.hypervolume_a > diff.hypervolume_b
        assert diff.hypervolume_ratio > 1.0

    def test_epsilon_blurs_small_differences(self):
        near = points([[4, 103]])
        exact = points([[4, 100]])
        assert compare_frontiers(near, exact).coverage_ab == 0.0
        assert compare_frontiers(near, exact,
                                 epsilon=("rel", 0.05)).coverage_ab == 1.0

    def test_mismatched_objectives_raise(self):
        a = points([[1, 2]])
        b = [FrontPoint(label="x", objectives=("area", "power"),
                        values=(1.0, 2.0))]
        with pytest.raises(ReproError):
            compare_frontiers(a, b)

    def test_summary_is_json_safe(self):
        diff = compare_frontiers(points([[4, 80]]), points([[4, 100]]))
        json.dumps(diff.summary())


class TestFlowAndWorkloadComparison:
    SWEEP = [metrics_record("L4", 4, 120.0, 150.0),
             metrics_record("L6", 6, 90.0, 100.0),
             metrics_record("L8", 8, 80.0, 95.0)]

    def test_flow_frontiers_extract_both_flows(self):
        fronts = flow_frontiers(self.SWEEP)
        assert set(fronts) == {"conventional", "slack_based"}
        assert all(fronts.values())

    def test_compare_flows_slack_wins_everywhere_here(self):
        diff = compare_flows(self.SWEEP)
        assert diff.name_a == "slack_based"
        assert diff.coverage_ab == 1.0
        assert diff.hypervolume_ratio >= 1.0


def exploration_result(vectors, labels=None, mode="adaptive",
                       engine_evaluations=None):
    member_points = points(vectors, labels)
    return ExplorationResult(
        workload="synthetic", mode=mode, objectives=OBJECTIVES,
        flow="slack_based",
        curve={int(v[0]): {} for v in vectors},
        points=member_points,
        front=pareto_front(member_points),
        engine_evaluations=(engine_evaluations
                            if engine_evaluations is not None
                            else len(vectors)),
        waves=1,
    )


class TestFrontierReport:
    def test_report_shape_and_json_safety(self):
        result = exploration_result([[4, 100], [8, 50], [8, 60]])
        report = frontier_report(result)
        json.dumps(report)
        assert report["workload"] == "synthetic"
        assert report["evaluations"]["engine"] == 3
        assert report["evaluations"]["flow_runs"] == 6
        assert [entry["label"] for entry in report["front"]] == ["p0", "p1"]
        assert report["front"][0]["area"] == 100.0
        assert report["hypervolume"] > 0
        assert report["knee"] in ("p0", "p1")

    def test_report_with_baseline_records_recovery(self):
        adaptive = exploration_result([[4, 100], [8, 50]],
                                      engine_evaluations=2)
        dense = exploration_result([[4, 100], [6, 70], [8, 50]], mode="dense",
                                   engine_evaluations=6)
        report = frontier_report(adaptive, baseline=dense,
                                 epsilon=(2.0, ("rel", 0.1)))
        recovery = report["recovery"]
        assert recovery["coverage_of_baseline_front"] == 1.0
        assert recovery["evaluation_saving_factor"] == pytest.approx(3.0)
        assert report["baseline"]["front_size"] == 3

    def test_markdown_rendering_mentions_the_essentials(self):
        result = exploration_result([[4, 100], [8, 50]])
        text = render_markdown(frontier_report(result))
        assert "synthetic" in text
        assert "| point" in text
        assert "hypervolume" in text
        assert "nan" not in text

    def test_empty_front_renders_without_crashing(self):
        result = exploration_result([])
        report = frontier_report(result)
        assert report["front"] == []
        assert report["knee"] is None
        assert "n/a" in render_markdown(report) or report["hypervolume"] == 0.0

    def test_frontier_rows_and_write_report(self, tmp_path):
        result = exploration_result([[4, 100], [8, 50]])
        header, rows = frontier_rows(result.front)
        assert header == ["point", "latency_steps", "area"]
        assert len(rows) == 2

        json_path = tmp_path / "out" / "frontier.json"
        md_path = tmp_path / "out" / "frontier.md"
        write_report(frontier_report(result), json_path=str(json_path),
                     markdown_path=str(md_path))
        loaded = json.loads(json_path.read_text())
        assert loaded["workload"] == "synthetic"
        assert md_path.read_text().startswith("# Frontier report")
