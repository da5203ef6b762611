"""Lint of .github/workflows/ci.yml: the quality gate must stay wired.

An ``act``-style dry parse: the workflow file is loaded as YAML and its
structure asserted, so a refactor cannot silently drop the nightly campaign
fleet, the perf-regression gate, the packaging smoke or the hygiene
settings (concurrency cancellation, pip caching).
"""

import os
import re

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".github", "workflows", "ci.yml")

#: The jobs gated on the nightly cron (every other job opts out of it).
NIGHTLY_JOBS = {"campaign-shard", "campaign-merge"}


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
        "campaign-shard", "campaign-merge"}


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
    # The nightly event only runs the campaign fleet; every other job opts
    # out.
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


def test_campaign_shard_matrix_matches_the_shard_count(workflow):
    """The matrix fan-out and the spec's --shards value are one number: the
    partition depends on the shard count, so a drifting matrix would run
    overlapping (or missing) slices of the campaign."""
    job = workflow["jobs"]["campaign-shard"]
    shards = job["strategy"]["matrix"]["shard"]
    assert shards == list(range(len(shards))), "shard indices must be 0..N-1"
    assert len(shards) >= 2, "the nightly fleet must actually fan out"
    run_text = _run_text(workflow, "campaign-shard")
    assert f"--shards {len(shards)}" in run_text
    assert "--shard ${{ matrix.shard }}" in run_text
    assert "--nightly" in run_text
    assert "--seed-from-date" in run_text
    assert job["strategy"].get("fail-fast") is False, (
        "one failing shard must not cancel the rest of the fleet")


def test_campaign_shard_uploads_indexed_artifacts(workflow):
    uploads = _uploads(workflow, "campaign-shard")
    assert uploads, "shard artifact upload missing"
    named = [str(step.get("with", {}).get("name", "")) for step in uploads]
    assert "campaign-shard-${{ matrix.shard }}" in named
    assert all(step.get("if") == "always()" for step in uploads)


def test_campaign_merge_fans_in_the_shard_artifacts(workflow):
    job = workflow["jobs"]["campaign-merge"]
    assert job.get("needs") == "campaign-shard"
    downloads = [step for step in _steps(workflow, "campaign-merge")
                 if str(step.get("uses", "")
                        ).startswith("actions/download-artifact")]
    assert downloads, "shard artifact download missing"
    assert any(step.get("with", {}).get("pattern") == "campaign-shard-*"
               for step in downloads)
    run_text = _run_text(workflow, "campaign-merge")
    assert "campaign merge" in run_text
    assert "--history campaign-history.jsonl" in run_text
    assert "campaign report" in run_text
    named = [str(step.get("with", {}).get("name", ""))
             for step in _uploads(workflow, "campaign-merge")]
    assert "campaign-merged" in named
    assert "campaign-trend" in named


def test_trend_history_accumulates_via_the_cache(workflow):
    """Both history writers (campaign-merge and bench-smoke) must restore
    the newest history from the cache prefix and save under a fresh
    run-scoped key — and the two keys must differ, because a
    workflow_dispatch run executes both jobs under one run_id."""
    keys = {}
    for job in ("campaign-merge", "bench-smoke"):
        restores = [step for step in _steps(workflow, job)
                    if str(step.get("uses", "")
                           ).startswith("actions/cache/restore")]
        saves = [step for step in _steps(workflow, job)
                 if str(step.get("uses", "")
                        ).startswith("actions/cache/save")]
        assert restores, f"{job}: history cache restore missing"
        assert saves, f"{job}: history cache save missing"
        assert any("campaign-history-" in str(step.get("with", {}
                   ).get("restore-keys", "")) for step in restores), job
        keys[job] = {str(step.get("with", {}).get("key", ""))
                     for step in saves}
    assert not (keys["campaign-merge"] & keys["bench-smoke"]), (
        "merge and bench must save the history under distinct keys")


def test_bench_job_appends_medians_to_the_trend_history(workflow):
    run_text = _run_text(workflow, "bench-smoke")
    assert "campaign bench" in run_text
    assert "--timings benchmark-timings.json" in run_text
    assert "--history campaign-history.jsonl" in run_text
    # Appending must happen after the suite wrote the timings file.
    assert run_text.index("--benchmark-json benchmark-timings.json") \
        < run_text.index("campaign bench")
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
                           "sched.relaxation.schedule_with_relaxation.calls"},
    "serve-memo": {"core.slack_scheduler.relaxation_attempts",
                   "core.slack_scheduler.rebudgets",
                   "sched.relaxation.schedule_with_relaxation.calls"},
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


def test_packaging_job_builds_installs_and_imports(workflow):
    run_text = _run_text(workflow, "package")
    assert "python -m build" in run_text
    assert "pip install dist/" in run_text
    assert "import repro" in run_text
    assert "repro.explore" in run_text and "repro.verify" in run_text
    assert "repro.campaign" in run_text
    assert "repro verify run" in run_text and "repro explore" in run_text
    # The unified dispatcher, the sweep-session layer and the campaign
    # planner must survive packaging: the `repro` script and `python -m
    # repro` resolve, a one-point batched sweep and a two-point pipelined
    # sweep (the flows' MII and modulo-scheduling path) run and the nightly
    # partition prints from the installed wheel.
    assert "repro --help" in run_text
    assert "python -m repro --help" in run_text
    assert "repro sweep" in run_text
    assert "repro sweep --rows 1 --latencies 8:8 --ii 2:3" in run_text
    assert "repro campaign plan --nightly" in run_text
    assert "repro.flows.sweep" in run_text


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
