"""Tests of the unified ``repro`` console script."""

import json
import os
import subprocess
import sys

from repro.cli import main
from repro.errors import ReproError


def test_no_command_prints_usage(capsys):
    assert main([]) == 2
    out = capsys.readouterr().out
    assert "explore" in out and "verify" in out and "sweep" in out


def test_help_flag_prints_usage(capsys):
    assert main(["--help"]) == 0
    assert "usage: repro" in capsys.readouterr().out


def test_unknown_command_fails(capsys):
    assert main(["frobnicate"]) == 2
    err = capsys.readouterr().err
    assert "unknown command" in err


def test_verify_subcommand_forwards(capsys):
    # A tiny deterministic fuzz slice through the forwarding path.
    code = main(["verify", "run", "--iterations", "2", "--seed", "7",
                 "--oracles", "pareto-front", "--no-shrink"])
    assert code == 0


def test_explore_subcommand_forwards(capsys):
    code = main(["explore", "--workload", "fir", "--latencies", "6:8",
                 "--dense"])
    assert code == 0
    assert "frontier" in capsys.readouterr().out


def test_sweep_subcommand_runs_session(tmp_path, capsys):
    out_path = tmp_path / "metrics.json"
    code = main(["sweep", "--rows", "1", "--latencies", "6:7",
                 "--stats", "--json", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Sweep: 2 point(s)" in out
    assert "SweepSession reuse" in out
    metrics = json.loads(out_path.read_text())
    assert len(metrics) == 2
    assert {m["point"]["name"] for m in metrics} == {"L6", "L7"}


def test_sweep_reports_failed_points_and_exits_1(tmp_path, capsys,
                                                 monkeypatch):
    """A failing point drops out of the table, is named on stderr, and the
    exit status says so; the other points are still swept and written."""
    from repro.workloads.factories import IDCTPointFactory

    build = IDCTPointFactory.__call__

    def flaky(self, point):
        if point.latency == 7:
            raise ReproError("injected failure")
        return build(self, point)

    monkeypatch.setattr(IDCTPointFactory, "__call__", flaky)
    out_path = tmp_path / "metrics.json"
    code = main(["sweep", "--rows", "1", "--latencies", "6:8",
                 "--json", str(out_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Sweep: 2 point(s)" in captured.out
    assert "L7 failed: ReproError: injected failure" in captured.err
    metrics = json.loads(out_path.read_text())
    assert [m["point"]["name"] for m in metrics] == ["L6", "L8"]


def test_python_dash_m_repro_runs_the_dispatcher():
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    completed = subprocess.run([sys.executable, "-m", "repro", "--help"],
                               capture_output=True, text=True, check=False,
                               env=dict(os.environ, PYTHONPATH=src))
    assert completed.returncode == 0
    assert "usage: repro" in completed.stdout


def test_sweep_rejects_bad_grid(capsys):
    assert main(["sweep", "--latencies", "not-a-grid"]) == 2
    assert "LO:HI" in capsys.readouterr().err


def test_sweep_ii_range_pipelines_the_points(tmp_path, capsys):
    out_path = tmp_path / "metrics.json"
    code = main(["sweep", "--rows", "1", "--latencies", "8",
                 "--ii", "4:5", "--json", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Sweep: 2 point(s)" in out
    metrics = json.loads(out_path.read_text())
    assert {m["point"]["name"] for m in metrics} == {"II4", "II5"}
    assert {m["point"]["pipeline_ii"] for m in metrics} == {4, 5}
    for m in metrics:
        assert m["slack_based"]["meets_timing"]


def test_sweep_rejects_bad_ii_range(capsys):
    assert main(["sweep", "--ii", "three"]) == 2
    assert "--ii expects LO:HI" in capsys.readouterr().err
    assert main(["sweep", "--ii", "5:2"]) == 2
    assert "LO <= HI" in capsys.readouterr().err


# -- observability: repro profile and --trace-out ----------------------------------


def test_usage_mentions_profile_and_trace_out(capsys):
    main([])
    out = capsys.readouterr().out
    assert "profile" in out and "--trace-out" in out


def test_profile_sweep_prints_phase_breakdown(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    jsonl_path = tmp_path / "spans.jsonl"
    chrome_path = tmp_path / "trace.json"
    code = main(["profile", "sweep", "--rows", "1", "--latencies", "6:7",
                 "--report-json", str(report_path),
                 "--jsonl-out", str(jsonl_path),
                 "--chrome-out", str(chrome_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Phase profile: repro sweep" in out
    assert "schedule" in out and "coverage" in out
    report = json.loads(report_path.read_text())
    assert report["span_count"] > 0
    # Phase totals sum to the traced time within the 5 %-of-wall bar.
    assert abs(sum(report["phases"].values()) - report["traced_seconds"]) \
        <= 0.05 * report["wall_seconds"]
    assert jsonl_path.read_text().strip()
    trace = json.loads(chrome_path.read_text())
    assert any(event["ph"] == "X" for event in trace["traceEvents"])


def test_profile_forwards_subcommand_flags_unabbreviated(tmp_path, capsys):
    # --json belongs to `repro sweep`; allow_abbrev=False keeps the profile
    # parser's --jsonl-out from capturing it.
    metrics_path = tmp_path / "metrics.json"
    code = main(["profile", "sweep", "--rows", "1", "--latencies", "6",
                 "--json", str(metrics_path)])
    assert code == 0
    assert len(json.loads(metrics_path.read_text())) == 1


def test_trace_out_records_spans_for_any_command(tmp_path, capsys):
    from repro.obs.export import load_spans_jsonl

    trace_path = tmp_path / "spans.jsonl"
    code = main(["sweep", "--rows", "1", "--latencies", "6:7",
                 "--trace-out", str(trace_path)])
    assert code == 0
    assert f"wrote {trace_path}" in capsys.readouterr().out
    roots = load_spans_jsonl(str(trace_path))
    names = {span.name for root in roots for span in root.walk()}
    assert "sweep.run" in names and "flow.schedule" in names


def test_trace_out_jsonl_converts_to_chrome_byte_stably(tmp_path, capsys):
    from repro.obs.export import jsonl_to_chrome_trace

    trace_path = tmp_path / "spans.jsonl"
    assert main(["sweep", "--rows", "1", "--latencies", "6",
                 f"--trace-out={trace_path}"]) == 0
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert jsonl_to_chrome_trace(str(trace_path), str(first)) > 0
    jsonl_to_chrome_trace(str(trace_path), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_trace_out_requires_a_value(capsys):
    assert main(["sweep", "--trace-out"]) == 2
    assert "--trace-out expects a PATH" in capsys.readouterr().err


def test_trace_out_with_unknown_command_still_fails(capsys, tmp_path):
    trace_path = tmp_path / "spans.jsonl"
    assert main(["frobnicate", "--trace-out", str(trace_path)]) == 2
    assert not trace_path.exists()
