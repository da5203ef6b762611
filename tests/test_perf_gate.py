"""Unit tests of the perf-regression comparator (benchmarks/check_timings.py)."""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "check_timings.py")

_spec = importlib.util.spec_from_file_location("check_timings", _SCRIPT)
check_timings = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spec and check_timings)


def _benchmark_json(path, means):
    payload = {"benchmarks": [
        {"fullname": name, "stats": {"mean": mean}}
        for name, mean in means.items()
    ]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return str(path)


def test_compare_passes_within_tolerance():
    baseline = {"a": 1.0, "b": 2.0, "c": 0.5}
    current = {"a": 1.1, "b": 2.1, "c": 0.55}
    regressions, notes = check_timings.compare(current, baseline)
    assert regressions == []
    assert any("normalization" in note for note in notes)


def test_compare_flags_a_single_regressed_benchmark():
    baseline = {"a": 1.0, "b": 2.0, "c": 0.5}
    current = {"a": 1.0, "b": 2.0, "c": 0.8}  # c regressed 60%
    regressions, _ = check_timings.compare(current, baseline)
    assert len(regressions) == 1 and regressions[0].startswith("c:")


def test_compare_normalizes_out_machine_speed():
    """A uniformly somewhat-slower runner must not trip the gate; one
    benchmark regressing on top of the uniform slowdown must."""
    baseline = {"a": 1.0, "b": 2.0, "c": 0.5, "d": 4.0}
    uniformly_slow = {name: mean * 1.4 for name, mean in baseline.items()}
    regressions, _ = check_timings.compare(uniformly_slow, baseline)
    assert regressions == []

    uniformly_slow["b"] *= 1.5  # 50% on top of the machine factor
    regressions, _ = check_timings.compare(uniformly_slow, baseline)
    assert len(regressions) == 1 and regressions[0].startswith("b:")


def test_compare_machine_factor_backstop_catches_correlated_regressions():
    """A correlated slowdown of every gated benchmark cannot hide inside
    the median normalization: beyond the machine-factor bound the gate
    fails with a suite-wide drift message."""
    baseline = {"a": 1.0, "b": 2.0, "c": 0.5, "d": 4.0}
    all_regressed = {name: mean * 3.0 for name, mean in baseline.items()}
    regressions, _ = check_timings.compare(all_regressed, baseline)
    assert len(regressions) == 1
    assert "suite-wide drift" in regressions[0]
    # A genuinely faster suite trips the same bound (stale baseline).
    all_faster = {name: mean / 3.0 for name, mean in baseline.items()}
    regressions, _ = check_timings.compare(all_faster, baseline)
    assert any("suite-wide drift" in line for line in regressions)


def test_compare_reports_side_only_benchmarks_as_notes():
    regressions, notes = check_timings.compare(
        {"new": 1.0, "shared": 1.0}, {"gone": 1.0, "shared": 1.0})
    assert regressions == []
    assert any("new benchmark" in note for note in notes)
    assert any("missing from this run" in note for note in notes)


def test_compare_improvements_are_notes_not_failures():
    baseline = {"a": 1.0, "b": 1.0, "c": 1.0}
    current = {"a": 1.0, "b": 1.0, "c": 0.3}
    regressions, notes = check_timings.compare(current, baseline)
    assert regressions == []
    assert any("improvement" in note for note in notes)


def test_main_gates_on_a_real_regression(tmp_path, capsys):
    baseline_path = str(tmp_path / "baseline.json")
    check_timings.write_baseline(baseline_path,
                                 {"a": 1.0, "b": 2.0, "c": 0.5})
    current = _benchmark_json(tmp_path / "current.json",
                              {"a": 1.0, "b": 2.0, "c": 1.0})
    code = check_timings.main([current, "--baseline", baseline_path])
    out = capsys.readouterr().out
    assert code == 1
    assert "REGRESSION c:" in out


def test_main_passes_and_update_baseline_path(tmp_path, capsys, monkeypatch):
    baseline_path = str(tmp_path / "baseline.json")
    current = _benchmark_json(tmp_path / "current.json", {"a": 1.0, "b": 2.0})

    # No baseline yet: informational pass.
    assert check_timings.main([current, "--baseline", baseline_path]) == 0
    assert "no baseline" in capsys.readouterr().out

    # REPRO_UPDATE_BASELINE=1 writes it.
    monkeypatch.setenv("REPRO_UPDATE_BASELINE", "1")
    assert check_timings.main([current, "--baseline", baseline_path]) == 0
    capsys.readouterr()
    monkeypatch.delenv("REPRO_UPDATE_BASELINE")

    # And the same run now passes against it.
    assert check_timings.main([current, "--baseline", baseline_path]) == 0
    assert "within" in capsys.readouterr().out
    data = json.load(open(baseline_path, encoding="utf-8"))
    assert data["schema"] == check_timings.BASELINE_SCHEMA
    assert data["benchmarks"] == {"a": 1.0, "b": 2.0}


def test_main_tolerates_empty_benchmark_json(tmp_path, capsys):
    current = _benchmark_json(tmp_path / "current.json", {})
    assert check_timings.main([current]) == 0
    assert "nothing to check" in capsys.readouterr().out


def test_history_records_bench_medians(tmp_path, capsys):
    """A passing run appends one sorted-keys line: each benchmark's median,
    its mean where pytest-benchmark gives no median, sorted by name."""
    timings = tmp_path / "timings.json"
    timings.write_text(json.dumps({"benchmarks": [
        {"name": "test_two", "stats": {"mean": 1.5}},
        {"fullname": "b/test_a.py::test_one",
         "stats": {"median": 0.25, "mean": 0.3}},
    ]}), encoding="utf-8")
    history = tmp_path / "trend" / "history.jsonl"
    args = [str(timings), "--baseline", str(tmp_path / "none.json"),
            "--history", str(history), "--run", "r9"]
    assert check_timings.main(args) == 0
    assert check_timings.main(args) == 0
    assert "appended 2 benchmark median(s)" in capsys.readouterr().out
    line = ('{"medians": {"b/test_a.py::test_one": 0.25, "test_two": 1.5}, '
            '"run": "r9", "schema": 1, "type": "bench"}\n')
    assert history.read_text(encoding="utf-8") == line * 2


def test_history_skips_a_run_without_medians(tmp_path):
    current = _benchmark_json(tmp_path / "current.json", {})
    history = tmp_path / "history.jsonl"
    assert check_timings.main([current, "--history", str(history)]) == 0
    assert not history.exists()


def test_history_is_not_written_when_the_gate_fails(tmp_path):
    baseline_path = str(tmp_path / "baseline.json")
    check_timings.write_baseline(baseline_path,
                                 {"a": 1.0, "b": 2.0, "c": 0.5})
    current = _benchmark_json(tmp_path / "current.json",
                              {"a": 1.0, "b": 2.0, "c": 1.0})
    history = tmp_path / "history.jsonl"
    assert check_timings.main([current, "--baseline", baseline_path,
                               "--history", str(history)]) == 1
    assert not history.exists()


def test_load_baseline_rejects_unknown_schema(tmp_path):
    path = str(tmp_path / "baseline.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": 99, "benchmarks": {"a": 1.0}}, handle)
    assert check_timings.load_baseline(path) == {}


@pytest.mark.parametrize("values,expected", [
    ([1.0], 1.0),
    ([1.0, 3.0], 2.0),
    ([5.0, 1.0, 3.0], 3.0),
])
def test_median(values, expected):
    assert check_timings._median(values) == expected
