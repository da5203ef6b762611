"""Lint of .github/workflows/ci.yml: the quality gate must stay wired.

An ``act``-style dry parse: the workflow file is loaded as YAML and its
structure asserted, so a refactor cannot silently drop the nightly fuzz
shards, the perf-regression gate, the packaging smoke or the hygiene
settings (concurrency cancellation, pip caching).
"""

import os
import re

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".github", "workflows", "ci.yml")

#: The jobs gated on the nightly cron (every other job opts out of it).
NIGHTLY_JOBS = {"fuzz-shard", "fuzz-merge"}


@pytest.fixture(scope="module")
def workflow():
    with open(WORKFLOW, "r", encoding="utf-8") as handle:
        data = yaml.safe_load(handle)
    assert isinstance(data, dict)
    return data


@pytest.fixture(scope="module")
def triggers(workflow):
    # YAML 1.1 parses the bare key `on` as boolean True.
    return workflow.get("on", workflow.get(True))


def _steps(workflow, job):
    assert job in workflow["jobs"], f"job {job!r} missing from ci.yml"
    return workflow["jobs"][job]["steps"]


def _run_text(workflow, job):
    return "\n".join(step.get("run", "") for step in _steps(workflow, job))


def _uploads(workflow, job):
    return [step for step in _steps(workflow, job)
            if str(step.get("uses", "")).startswith("actions/upload-artifact")]


def test_workflow_parses_and_has_all_jobs(workflow):
    assert set(workflow["jobs"]) == {
        "lint", "test", "coverage", "bench-smoke", "package",
        "fuzz-shard", "fuzz-merge"}


def test_test_matrix_includes_the_oldest_supported_python(workflow):
    """The test job must run on the oldest Python that ``requires-python``
    admits, so code that needs a newer one (``int.bit_count`` is 3.10+)
    fails CI instead of an install."""
    pyproject = os.path.join(os.path.dirname(os.path.dirname(WORKFLOW)),
                             "..", "pyproject.toml")
    with open(os.path.normpath(pyproject), "r", encoding="utf-8") as handle:
        match = re.search(r'^requires-python\s*=\s*">=\s*(\d+\.\d+)"',
                          handle.read(), re.M)
    assert match, "pyproject.toml must state requires-python as >=X.Y"
    matrix = workflow["jobs"]["test"]["strategy"]["matrix"]["python-version"]
    assert match.group(1) in [str(version) for version in matrix]


def test_schedule_and_dispatch_triggers(workflow, triggers):
    assert "schedule" in triggers, "nightly cron trigger missing"
    crons = [entry["cron"] for entry in triggers["schedule"]]
    assert len(crons) == 1 and len(crons[0].split()) == 5
    assert "workflow_dispatch" in triggers
    # The nightly event only runs the fuzz shards and their fan-in; every
    # other job opts out.
    for job, config in workflow["jobs"].items():
        condition = config.get("if", "")
        if job in NIGHTLY_JOBS:
            assert "schedule" in condition, job
        else:
            assert "github.event_name != 'schedule'" in condition, job


def test_concurrency_cancels_superseded_pr_runs(workflow):
    concurrency = workflow.get("concurrency")
    assert isinstance(concurrency, dict)
    assert "github.ref" in concurrency["group"]
    assert "cancel-in-progress" in concurrency


def test_every_setup_python_step_caches_pip(workflow):
    saw_setup = 0
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            uses = step.get("uses", "")
            if uses.startswith("actions/setup-python"):
                saw_setup += 1
                assert step.get("with", {}).get("cache") == "pip", (
                    f"setup-python without pip cache in {uses}")
    assert saw_setup >= 7


def test_pr_scoped_fuzz_smoke_runs_in_the_test_job(workflow):
    run_text = _run_text(workflow, "test")
    assert "python -m repro verify run" in run_text
    assert "--iterations 50" in run_text
    assert "--seed 0" in run_text
    # No oracle filter: every registered oracle (including
    # pipelined-vs-unrolled) joins the PR-scoped round-robin.
    assert "--oracles" not in run_text


def test_serve_smoke_gate_is_wired(workflow):
    """The serve-layer memoization gate must run in the PR test matrix and
    from the installed wheel: a cold+warm round trip whose warm resubmit
    performs zero new flow evaluations (see ``repro serve smoke``)."""
    assert "python -m repro serve smoke" in _run_text(workflow, "test")
    package_text = _run_text(workflow, "package")
    assert "repro serve smoke" in package_text
    assert "repro.serve" in package_text  # the wheel must ship the package


def test_fuzz_shard_matrix_runs_the_nightly_fuzz_budget(workflow):
    """Four shards of `repro verify run`, each 100 checks of the scenario
    stream seeded YYYYMMDD + shard, with the nightly's segment cap and
    wall-clock budget: 400 checks a night, no scenario checked twice."""
    job = workflow["jobs"]["fuzz-shard"]
    assert job["strategy"]["matrix"]["shard"] == [0, 1, 2, 3]
    assert job["strategy"].get("fail-fast") is False, (
        "one failing shard must not cancel the others")
    run_text = _run_text(workflow, "fuzz-shard")
    assert "python -m repro.cli verify run" in run_text
    assert "--seed $(( $(date -u +%Y%m%d) + ${{ matrix.shard }} ))" \
        in run_text
    assert "--iterations 100" in run_text
    assert "--max-segments 5" in run_text
    assert "--budget-seconds 480" in run_text
    # A hang must fail the shard, not end as a check the budget cut short.
    assert "--oracle-deadline 60" in run_text
    assert "--corpus fuzz-out/corpus.jsonl" in run_text
    assert "--oracle-timings fuzz-out/oracle-timings.json" in run_text


def test_fuzz_shard_step_times_out_above_its_budget(workflow):
    """A hang that never reaches a deadline checkpoint must fail the shard
    in minutes, not after the runner's 6-hour default: the fuzz step has a
    timeout above its 480-s budget."""
    [step] = [step for step in _steps(workflow, "fuzz-shard")
              if "verify run" in step.get("run", "")]
    assert 480 / 60 < step["timeout-minutes"] <= 30


def test_fuzz_shard_uploads_its_corpus(workflow):
    uploads = _uploads(workflow, "fuzz-shard")
    assert uploads, "shard artifact upload missing"
    assert [step["with"]["name"] for step in uploads] \
        == ["fuzz-shard-${{ matrix.shard }}"]
    assert [step["with"]["path"] for step in uploads] == ["fuzz-out/"]
    assert all(step.get("if") == "always()" for step in uploads)


def test_fuzz_merge_fans_in_the_shard_corpora(workflow):
    """The fan-in runs even when a shard found a violation (a violating
    shard exits 1), merges every shard's corpus with `repro verify merge`
    and uploads the result."""
    job = workflow["jobs"]["fuzz-merge"]
    assert job.get("needs") == "fuzz-shard"
    assert job["if"].startswith("always() && ")
    downloads = [step for step in _steps(workflow, "fuzz-merge")
                 if str(step.get("uses", "")
                        ).startswith("actions/download-artifact")]
    assert [step["with"]["pattern"] for step in downloads] == ["fuzz-shard-*"]
    run_text = _run_text(workflow, "fuzz-merge")
    assert "python -m repro.cli verify merge" in run_text
    assert "--out merged/corpus.jsonl" in run_text
    assert "shards/fuzz-shard-*/corpus.jsonl" in run_text
    uploads = _uploads(workflow, "fuzz-merge")
    assert [step["with"]["path"] for step in uploads] == ["merged/"]
    assert all(step.get("if") == "always()" for step in uploads)


def test_trend_history_accumulates_via_the_cache(workflow):
    """bench-smoke restores the newest history from the cache prefix and
    saves it under a fresh run-scoped key, so the history keeps growing
    across runs."""
    steps = _steps(workflow, "bench-smoke")
    restores = [step for step in steps
                if str(step.get("uses", "")).startswith("actions/cache/restore")]
    saves = [step for step in steps
             if str(step.get("uses", "")).startswith("actions/cache/save")]
    assert [step["with"]["path"] for step in restores + saves] \
        == ["campaign-history.jsonl"] * 2
    assert [step["with"]["restore-keys"] for step in restores] \
        == ["campaign-history-"]
    assert [step["with"]["key"] for step in restores + saves] \
        == ["campaign-history-bench-${{ github.run_id }}"] * 2
    assert saves[0].get("if") == "always()"
    assert steps.index(restores[0]) < steps.index(saves[0])


def test_bench_job_appends_medians_to_the_trend_history(workflow):
    """The perf gate writes the history line, and only when it passes."""
    run_text = _run_text(workflow, "bench-smoke")
    append = ("python benchmarks/check_timings.py benchmark-timings.json "
              "--history campaign-history.jsonl")
    assert append in run_text
    assert '--run "${{ github.run_id }}"' in run_text
    # Appending must happen after the suite wrote the timings file.
    assert run_text.index("--benchmark-json benchmark-timings.json") \
        < run_text.index(append)
    named = [str(step.get("with", {}).get("name", ""))
             for step in _uploads(workflow, "bench-smoke")]
    assert "campaign-history" in named


def test_bench_job_uploads_a_perfetto_trace(workflow):
    """bench-smoke must record a traced Table-4 mini sweep through the
    profile CLI and upload the Chrome trace so any CI run can be inspected
    phase-by-phase in Perfetto."""
    run_text = _run_text(workflow, "bench-smoke")
    assert "repro.cli profile sweep" in run_text
    assert "--chrome-out table4-trace.json" in run_text
    trace = [step for step in _uploads(workflow, "bench-smoke")
             if "table4-trace" in str(step.get("with", {}).get("path", ""))]
    assert trace, "Chrome trace artifact upload missing"


def test_phase_trace_fails_unless_the_template_tables_hit(workflow):
    """The phase-trace step checks the report it just wrote: it fails
    unless ``caches.analysis_cache`` lists the budget and span templates
    with hits, so a sweep that runs without its templates fails CI."""
    [step] = [step for step in _steps(workflow, "bench-smoke")
              if "repro.cli profile sweep" in step.get("run", "")]
    run_text = step["run"]
    assert "pipefail" in run_text
    assert run_text.index("--report-json table4-profile.json") \
        < run_text.index('open("table4-profile.json"')
    assert '["caches"]["analysis_cache"]' in run_text
    assert '("budget_templates", "span_templates")' in run_text
    assert '.get("hits", 0) <= 0' in run_text
    assert "sys.exit(1 if cold else 0)" in run_text


def test_phase_trace_fails_unless_rebudgets_replay(workflow):
    """The phase-trace step reads the Chrome trace it just wrote and fails
    unless some ``sched.rebudget`` event has ``args.replayed`` true and some
    false, so a change that silently stops replaying re-budgets fails CI
    even though every digest holds."""
    [step] = [step for step in _steps(workflow, "bench-smoke")
              if "repro.cli profile sweep" in step.get("run", "")]
    run_text = step["run"]
    assert run_text.index("--chrome-out table4-trace.json") \
        < run_text.index('open("table4-trace.json"')
    assert run_text.index("sys.exit(1 if cold else 0)") \
        < run_text.index('open("table4-trace.json"')
    assert '["traceEvents"]' in run_text
    assert 'event["name"] == "sched.rebudget"' in run_text
    assert 'event["args"].get("replayed")' in run_text
    assert "for flag in (True, False) if flag not in seen" in run_text
    assert "sys.exit(1 if missing else 0)" in run_text


def test_coverage_gate_is_wired_and_pinned(workflow):
    """The coverage job must measure src/repro over tests/ only and fail
    under a pinned threshold — and the threshold cannot be quietly dropped
    or lowered below its floor to make a PR pass."""
    run_text = _run_text(workflow, "coverage")
    assert "--cov=repro" in run_text
    assert "pytest tests" in run_text, "coverage must exclude benchmarks/"
    assert "benchmarks" not in run_text
    match = re.search(r"--cov-fail-under=(\d+)", run_text)
    assert match, "--cov-fail-under gate missing from the coverage job"
    assert int(match.group(1)) >= 75, (
        "coverage gate lowered below its floor; raise coverage instead")
    assert "pytest-cov" in run_text


def test_bench_job_runs_the_perf_regression_gate(workflow):
    run_text = _run_text(workflow, "bench-smoke")
    assert "benchmarks/check_timings.py" in run_text
    assert "--benchmark-json benchmark-timings.json" in run_text
    # The gate must run on the same file the suite just wrote.
    assert run_text.index("--benchmark-json benchmark-timings.json") \
        < run_text.index("benchmarks/check_timings.py")


def test_bench_job_runs_the_benchmark_harness(workflow):
    """bench-smoke runs perfbench's own tests and a short traced run of
    every workload BENCHMARK.json lists, failing on "correct": false, so a
    src/ change that breaks a name the benchmark wraps or one of its
    correctness checks fails CI rather than the benchmark of the PR."""
    import json

    run_text = _run_text(workflow, "bench-smoke")
    assert "python -m pytest perfbench -q" in run_text
    assert "pipefail" in run_text
    assert "python3 perfbench/run.py" in run_text
    assert "--seconds 5 --trace 1" in run_text
    assert '["correct"] is True' in run_text
    with open(os.path.join(os.path.dirname(WORKFLOW), "..", "..",
                           "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        listed = [entry["name"] for entry in json.load(handle)["workloads"]]
    assert listed
    # pipeline-ii is not a BENCHMARK.json workload, but it is the only
    # paper-scale run of the pipelined flows in CI.
    for name in listed + ["pipeline-ii"]:
        assert name in run_text, f"workload {name!r} is not smoke-tested"


#: Per-layer counts each traced smoke workload must exercise.  perfbench
#: counts some of them by parent span, so a refactor that moves a wrapped
#: call zeroes them without touching "correct".
EXERCISED_COUNTS = {
    "table4-rows2-light": {"core.slack_scheduler.relaxation_attempts",
                           "core.slack_scheduler.rebudgets",
                           "sched.relaxation.schedule_with_relaxation.calls",
                           "rtl.area_recovery.recover_area.downgrades"},
    "serve-memo": {"core.slack_scheduler.relaxation_attempts",
                   "core.slack_scheduler.rebudgets",
                   "sched.relaxation.schedule_with_relaxation.calls",
                   "rtl.area_recovery.recover_area.downgrades",
                   "core.jsonl.append_records.calls"},
    "pipeline-ii": {"sched.modulo_scheduler.try_modulo_schedule.calls"},
}


def test_bench_job_fails_when_an_exercised_count_reads_zero(workflow):
    """Each traced smoke run names the per-layer counts its workload must
    exercise (``smoke <workload> <count>...``), and the check fails the job
    when one of them reads 0, as well as on "correct": false."""
    run_text = _run_text(workflow, "bench-smoke")
    smoked = {}
    for line in run_text.splitlines():
        words = line.split()
        if len(words) > 1 and words[0] == "smoke":
            smoked[words[1]] = set(words[2:])
    for workload, counts in EXERCISED_COUNTS.items():
        missing = counts - smoked.get(workload, set())
        assert not missing, f"{workload} does not check {sorted(missing)}"
    assert '["value"] == 0' in run_text
    assert '["correct"] is True and not zero' in run_text


#: The result digest prefix of each smoke workload (perfbench's seed 1).
#: A change that moves a result on purpose re-pins it here and in ci.yml.
PINNED_DIGESTS = {
    "table4-rows2-light": "1a9ce067ecbace83",
    "serve-memo": "32d4d5fac3f2939c",
    "pipeline-ii": "bd5ad4165eeed67b",
}


def test_bench_job_checks_each_smoke_workloads_result_digest(workflow):
    """Right after each traced smoke, ``digest <workload> <prefix>`` reads
    the workload's ``.perfbench/result-<workload>.json`` and fails unless
    its ``digest`` starts with the pinned prefix."""
    run_text = _run_text(workflow, "bench-smoke")
    lines = [line.split() for line in run_text.splitlines()]
    checked = {}
    for before, words in zip(lines, lines[1:]):
        if len(words) == 3 and words[0] == "digest":
            assert before[:2] == ["smoke", words[1]], words
            checked[words[1]] = words[2]
    assert checked == PINNED_DIGESTS
    assert '.perfbench/result-{workload}.json' in run_text
    assert 'json.load(handle)["digest"]' in run_text
    assert "if not found.startswith(prefix):" in run_text
    assert "sys.exit(1)" in run_text


#: The deterministic per-layer counts each listed smoke workload pins
#: (perfbench's seed 1).  An exact speed-up keeps them; a change that alters
#: the work on purpose re-pins them here and in ci.yml.
PINNED_COUNTS = {
    "table4-rows2-light": {
        "core.slack_scheduler.relaxation_attempts": 52,
        "sched.list_scheduler.try_list_schedule.calls": 77,
        "core.slack_scheduler.rebudgets": 401,
        "core.budgeting.budget_slack.calls": 414,
        "core.budgeting.budget_slack.iterations": 685,
        "rtl.area_recovery.recover_area.downgrades": 109,
    },
    "serve-memo": {
        "core.slack_scheduler.relaxation_attempts": 184,
        "sched.list_scheduler.try_list_schedule.calls": 405,
        "core.slack_scheduler.rebudgets": 1070,
        "core.budgeting.budget_slack.calls": 1270,
        "core.budgeting.budget_slack.iterations": 38,
        "rtl.area_recovery.recover_area.downgrades": 3748,
    },
}


def test_bench_job_pins_the_listed_workloads_per_layer_counts(workflow):
    """Right after each listed workload's digest check, ``counts <workload>
    <name>=<value>...`` pins the deterministic per-layer counts of its work."""
    run_text = _run_text(workflow, "bench-smoke")
    lines = [line.split() for line in run_text.splitlines()]
    pinned = {}
    for before, words in zip(lines, lines[1:]):
        if len(words) > 2 and words[0] == "counts":
            assert before[:2] == ["digest", words[1]], words
            pinned[words[1]] = {name: int(value) for name, value
                                in (pin.split("=") for pin in words[2:])}
    assert pinned == PINNED_COUNTS


def _counts_script(run_text):
    """The Python body of the bench-smoke job's ``counts`` function."""
    body = run_text[run_text.index("counts() {"):]
    opening = "python3 -c '"
    return body[body.index(opening) + len(opening):body.index("' \"$@\"")]


def test_count_pins_fail_when_a_count_moves(workflow, tmp_path):
    """The ``counts`` check reads ``layers`` from the workload's result file
    and exits 1, naming the count, when one differs from its pin."""
    import json
    import subprocess
    import sys

    code = _counts_script(_run_text(workflow, "bench-smoke"))
    pins = [f"{name}={value}"
            for name, value in PINNED_COUNTS["serve-memo"].items()]
    (tmp_path / ".perfbench").mkdir()
    result = tmp_path / ".perfbench" / "result-serve-memo.json"

    def check(layers):
        result.write_text(json.dumps({"layers": layers}), encoding="utf-8")
        return subprocess.run([sys.executable, "-c", code, "serve-memo"]
                              + pins, cwd=tmp_path, capture_output=True,
                              text=True)

    layers = {name: float(value)
              for name, value in PINNED_COUNTS["serve-memo"].items()}
    assert check(layers).returncode == 0
    layers["core.slack_scheduler.rebudgets"] += 1
    moved = check(layers)
    assert moved.returncode == 1
    assert "core.slack_scheduler.rebudgets reads 1071.0" in moved.stderr


def test_packaging_job_builds_installs_and_imports(workflow):
    run_text = _run_text(workflow, "package")
    assert "python -m build" in run_text
    assert "pip install dist/" in run_text
    assert "import repro" in run_text
    assert "repro.explore" in run_text and "repro.verify" in run_text
    assert "repro verify run" in run_text and "repro explore" in run_text
    # The unified dispatcher and the sweep-session layer must survive
    # packaging: the `repro` script and `python -m repro` resolve, a
    # one-point batched sweep and a two-point pipelined sweep (the flows'
    # MII and modulo-scheduling path) run, and the nightly's fuzz command
    # runs at small size into a directory that does not exist yet.
    assert "repro --help" in run_text
    assert "python -m repro --help" in run_text
    assert "repro sweep" in run_text
    assert "repro sweep --rows 1 --latencies 8:8 --ii 2:3" in run_text
    assert ('repro verify run --iterations 5 --seed 0 --max-segments 5 '
            '--corpus "$RUNNER_TEMP/n/c.jsonl" '
            '--oracle-timings "$RUNNER_TEMP/n/t.json"') in run_text
    # README's budget example stays green: the check the budget cuts short
    # is no violation and writes no corpus file.
    assert ('repro verify run --budget-seconds 2 '
            '--corpus "$RUNNER_TEMP/b/c.jsonl"\n'
            'test ! -e "$RUNNER_TEMP/b/c.jsonl"') in run_text
    assert "repro.flows.sweep" in run_text
    assert "campaign" not in run_text


def test_perf_baseline_is_committed_and_well_formed():
    import json

    baseline_path = os.path.join(os.path.dirname(WORKFLOW), "..", "..",
                                 "benchmarks", "baseline_timings.json")
    with open(os.path.normpath(baseline_path), "r", encoding="utf-8") as handle:
        data = json.load(handle)
    assert data["schema"] == 1
    assert isinstance(data["benchmarks"], dict) and data["benchmarks"]
    assert all(isinstance(mean, (int, float)) and mean > 0
               for mean in data["benchmarks"].values())
    # The batched-vs-per-point sweep benchmark must stay under the perf
    # gate: it is the entry that watches the SweepSession delta path.
    assert ("benchmarks/test_bench_kernel_sweep.py::"
            "test_batched_session_matches_and_beats_per_point"
            in data["benchmarks"])
    # Likewise the modulo-scheduler entries: the pipelined flow's wall time
    # and the II sweep stay under the perf gate.
    assert ("benchmarks/test_bench_pipeline.py::test_modulo_scheduling_time"
            in data["benchmarks"])
    assert ("benchmarks/test_bench_pipeline.py::"
            "test_ii_sweep_trades_area_for_throughput" in data["benchmarks"])
