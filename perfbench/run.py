"""The repository benchmark: one command, fresh processes, steady timings.

    python3 perfbench/run.py --workload table4-rows2-light --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

``all`` runs every workload ``worker.py`` knows, the ones run by hand
included: several minutes, and ``table4-rows8`` peaks at about 2.3 GB.

Run from the root of a checkout.  Each repetition of the workload runs in a
fresh interpreter (``worker.py``), so every repetition starts with empty
caches; repetitions run while another one fits in ``--seconds``.  Each
timing is taken over each unit's (point's or job's) fastest time in the
repetitions: ``wall_s`` is their sum, the percentiles are over units.
Other load on a shared machine only ever adds time, so the minimum is the
steadiest estimate of the program's own cost.  ``setup_s`` and
``peak_rss_mb`` are medians.

Every timing is then calibrated: multiplied by
``CALIBRATION_REFERENCE_S / c``, where ``c`` is the time of a fixed
pure-Python loop sampled before every repetition of the run, estimated the
way the program's timings are (each sample position's fastest time over the
repetitions, then the median over positions).  A shared machine's speed
drifts for tens of seconds at a time; the calibration takes out much of
that drift, and it never depends on the program's code.  The report prints
the raw timings and the factor next to the calibrated ones.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics and the
tracing overhead.  A run is correct when every repetition passes its checks
and all of them, traced or not, produce the same result digest.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report.  Full per-repetition details go to
``.perfbench/result-<workload>.json`` and, when tracing, the spans of the
last traced repetition to ``.perfbench/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from stats import (  # noqa: E402
    highest_percentile, median, percentile, ratio, spread)

#: The workloads ``BENCHMARK.json`` lists, in report order.
LISTED = ("table4-rows2-light", "serve-memo")

#: Every workload ``worker.py`` knows; the others are run by hand.
KNOWN = LISTED + ("pipeline-ii", "table4-rows2", "table4-rows8")

#: Set-up samples per run: repetitions plus set-up-only processes.
SETUP_SAMPLES = 5

#: A run must end well inside the three minutes one invocation may take.
RUN_BUDGET_S = 170.0

#: Samples of the calibration loop taken before each repetition.
CALIBRATION_SAMPLES = 8

#: The calibration loop's fastest time on the reference machine (a 2-core
#: Intel Xeon VM, Python 3.11): calibrated timings are at that speed.
CALIBRATION_REFERENCE_S = 0.0170

#: The calibration loop's memory walk: a table larger than a core's private
#: caches, read in a fixed random order.
_TABLE = [(i, i % 7) for i in range(400_000)]
_WALK = random.Random(0).sample(range(len(_TABLE)), 50_000)

#: The end-to-end metrics that are times, and so are calibrated.
TIMINGS = ("setup_s", "wall_s", "point_p50_ms", "job_p50_ms", "job_p90_ms",
           "warm_job_p50_ms", "warm_job_p90_ms")

#: ``(name, unit)`` of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("point_p50_ms", "ms"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("warm_job_p50_ms", "ms"),
    ("warm_job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("slack_wins", "count"),
)

#: The paper's Table-4 result, printed next to each sweep for comparison.
PAPER_AVERAGE_SAVING = 8.9
PAPER_WINS, PAPER_LOSSES = 12, 3


class WorkerError(RuntimeError):
    """A worker exited badly or printed no result."""


def fingerprint() -> Dict[str, object]:
    """Machine, interpreter and source revision of this run."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": _commit()}


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), "r",
                      encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def calibration_loop(count: int = 100_000) -> int:
    """Fixed interpreter work: arithmetic, then a walk over ``_TABLE``.

    The program slows down on a busy machine both from lost cycles and from
    contention for the shared caches; the two halves sample each.
    """
    total = 0
    for i in range(count):
        total += i * i % 7
    for index in _WALK:
        total += _TABLE[index][1]
    return total


def calibrate(samples: int = CALIBRATION_SAMPLES) -> List[float]:
    """Times of ``samples`` runs of :func:`calibration_loop`, in seconds."""
    times = []
    for _ in range(samples):
        begin = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - begin)
    return times


def calibration_time(samples: List[List[float]]) -> float:
    """The calibration loop's time from one list of samples per repetition:
    each position's fastest time over the repetitions, then the median."""
    return median(min(column) for column in zip(*samples))


def worker(workload: str, seed: int, deadline: float, trace: bool = False,
           setup_only: bool = False) -> Dict[str, object]:
    """Run one repetition in a fresh interpreter and return its report."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed), "--workdir", OUT]
    if trace:
        command += ["--trace", "--spans",
                    os.path.join(OUT, f"spans-{workload}.jsonl")]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload}: repetition exceeded the time budget") \
            from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"{workload}: worker exited {done.returncode}\n"
                          f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, object]:
    """Repeat the workload while another repetition fits in ``seconds``
    (at least once); summarise."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    reps: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    calibration: List[List[float]] = []
    while True:
        began = time.monotonic()
        calibration.append(calibrate())
        reps.append(worker(workload, seed, deadline))
        if trace:
            traced.append(worker(workload, seed, deadline, trace=True))
        now = time.monotonic()
        if now + (now - began) > min(start + seconds, deadline):
            break
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES and \
            time.monotonic() + 1 < min(start + seconds + 5, deadline):
        setups.append(worker(workload, seed, deadline,
                             setup_only=True)["setup_s"])
    summary = summarise(workload, reps, traced, setups,
                        CALIBRATION_REFERENCE_S / calibration_time(calibration))
    summary["calibration_s"] = calibration
    return summary


def summarise(workload: str, reps: List[Dict[str, object]],
              traced: List[Dict[str, object]], setups: List[float],
              factor: float = 1.0) -> Dict[str, object]:
    """Metrics of one run; ``factor`` scales its timings to the reference
    machine's speed."""
    problems = [problem for rep in reps + traced for problem in rep["problems"]]

    def per_unit(key: str) -> List[float]:
        """Each unit's fastest latency over the repetitions.  Units run in
        the same order in every repetition, so position identifies them."""
        if len({len(rep[key]) for rep in reps}) > 1:
            problems.append(f"repetitions differ in their number of {key}")
        return [min(samples) for samples in zip(*(rep[key] for rep in reps))]

    first = reps[0]
    jobs, warm = per_unit("cold_ms"), per_unit("warm_ms")
    raw = {
        "setup_s": median(setups),
        "wall_s": sum(per_unit("unit_ms")) / 1000.0,
        "point_p50_ms": percentile(per_unit("point_ms"), 50),
        "job_p50_ms": percentile(jobs, 50),
        "job_p90_ms": percentile(jobs, 90),
        "warm_job_p50_ms": percentile(warm, 50),
        "warm_job_p90_ms": percentile(warm, 90),
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in reps),
        "slack_wins": sum(1 for saving in first["savings"] if saving > 0),
    }
    metrics = {name: value * factor if name in TIMINGS else value
               for name, value in raw.items()}
    digests = {rep["digest"] for rep in reps + traced}
    if len(digests) > 1:
        problems.append(f"result digests differ between repetitions: "
                        f"{sorted(digests)}")
    failed = sum(len(rep["failures"]) for rep in reps + traced)
    attempted = sum(rep["attempted"] for rep in reps + traced)
    summary = {
        "workload": workload,
        "metrics": metrics,
        "raw_metrics": raw,
        "calibration_factor": factor,
        "failed_ratio": ratio(len(first["failures"]), first["attempted"]),
        "failures": first["failures"],
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "digest": first["digest"],
        "repetitions": len(reps),
        "samples": {"setup": len(setups), "job": len(first["cold_ms"]),
                    "warm_job": len(first["warm_ms"])},
        "savings": first["savings"],
        "reps": reps,
    }
    if traced:
        layers = {name: median(rep["layers"][name] for rep in traced)
                  * (factor if _layer_unit(name) == "s" else 1.0)
                  for name in traced[0]["layers"]}
        layers["failed_ratio"] = summary["failed_ratio"]
        layers["trace.overhead_ratio"] = ratio(
            median(rep["wall_s"] for rep in traced),
            median(rep["wall_s"] for rep in reps))
        summary["layers"] = layers
        summary["traced_reps"] = traced
    return summary


def report(summaries: List[Dict[str, object]], trace: bool) -> None:
    """The human-readable part: one row per workload, then details."""
    print(f"fingerprint: {json.dumps(fingerprint(), sort_keys=True)}")
    names = [name for name, _ in END_TO_END] + ["failed_ratio"]
    units = dict(END_TO_END, failed_ratio="fraction")
    header = ["workload", "reps"] + [f"{name} [{units[name]}]"
                                     for name in names] + ["correct"]
    print(" | ".join(header))
    for summary in summaries:
        values = dict(summary["metrics"], failed_ratio=summary["failed_ratio"])
        print(" | ".join([summary["workload"], str(summary["repetitions"])]
                         + [f"{values[name]:.4g}" for name in names]
                         + [str(summary["correct"])]))
    for summary in summaries:
        name = summary["workload"]
        samples = summary["samples"]
        walls = [rep["wall_s"] for rep in summary["reps"]]
        highest = highest_percentile(samples["job"])
        raw = summary["raw_metrics"]
        print(f"{name}: calibration factor "
              f"{summary['calibration_factor']:.4f}; raw timings: "
              + ", ".join(f"{metric} {raw[metric]:.4g}" for metric in TIMINGS))
        print(f"{name}: {samples['job']} job samples (highest percentile with "
              f"10 beyond: {f'p{highest}' if highest else 'none'}) and "
              f"{samples['warm_job']} warm-job samples per repetition; "
              f"{samples['setup']} set-up samples; wall_s quartile spread "
              f"over repetitions {spread(walls):.3f}; "
              f"digest {summary['digest'][:16]}")
        savings = summary["savings"]
        if name != "serve-memo" and savings:
            wins = sum(1 for saving in savings if saving > 0)
            losses = sum(1 for saving in savings if saving < 0)
            print(f"{name}: paper shape: average saving "
                  f"{sum(savings) / len(savings):.1f} % over {len(savings)} "
                  f"points (paper {PAPER_AVERAGE_SAVING} %), wins/losses "
                  f"{wins}/{losses} (paper {PAPER_WINS}/{PAPER_LOSSES})")
        for failure in summary["failures"]:
            print(f"{name}: FAILED {failure['unit']}: {failure['error']}: "
                  f"{failure['message']}")
        for problem in summary["problems"]:
            print(f"{name}: INCORRECT {problem}")
        if trace:
            layers = summary["layers"]
            print(f"{name}: tracing overhead: traced wall_s / untraced "
                  f"wall_s = {layers['trace.overhead_ratio']:.3f}")
            for layer, value in layers.items():
                print(f"  {layer} = {value:.6g}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=KNOWN + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is "
              f"missing (run from the root of a full checkout)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workloads = KNOWN if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(name, args.seed, args.seconds,
                                  bool(args.trace)) for name in workloads]
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for summary in summaries:
        path = os.path.join(OUT, f"result-{summary['workload']}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(summary, fingerprint=fingerprint(), seed=args.seed,
                           trace=args.trace), handle, indent=1)
    report(summaries, bool(args.trace))

    def metric_block(summary):
        if args.trace:
            return {name: {"value": value, "unit": _layer_unit(name)}
                    for name, value in summary["layers"].items()}
        units = dict(END_TO_END)
        return {name: {"value": value, "unit": units[name]}
                for name, value in summary["metrics"].items()}

    metrics = metric_block(summaries[0]) if len(summaries) == 1 else {
        summary["workload"]: metric_block(summary) for summary in summaries}
    print(json.dumps({
        "correct": all(summary["correct"] for summary in summaries),
        "attempted": sum(summary["attempted"] for summary in summaries),
        "failed": sum(summary["failed"] for summary in summaries),
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
