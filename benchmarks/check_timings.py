#!/usr/bin/env python3
"""Perf-regression gate: compare a pytest-benchmark run against the baseline.

Usage (what the CI bench-smoke job runs after the benchmark suite)::

    python benchmarks/check_timings.py benchmark-timings.json

The baseline (``benchmarks/baseline_timings.json``) records the mean wall
time of every tracked benchmark.  The comparator computes each benchmark's
ratio against its baseline, **normalizes by the median ratio across all
benchmarks** — which cancels machine-speed differences between the runner
that produced the baseline and the runner executing the gate — and fails
when any benchmark's normalized ratio exceeds ``1 + tolerance`` (default
tolerance 0.25, i.e. a >25 % regression relative to the suite-wide drift).

The normalization is bounded: a median ratio outside ``[1/1.75, 1.75]``
fails as "suite-wide drift", so a *correlated* regression of the shared hot
path cannot hide by shifting the median (and a baseline from a wildly
different machine is rejected instead of silently recalibrated).

Regenerating the baseline (after an intentional perf change, on any
broadly comparable machine)::

    REPRO_UPDATE_BASELINE=1 python benchmarks/check_timings.py benchmark-timings.json

Benchmarks appearing only on one side are reported but never fail the gate
(new benchmarks have no baseline yet; retired ones linger in the baseline
until it is regenerated).

Trend history: with ``--history PATH`` a run whose gate passed also appends
one line to a JSONL history — the median of every benchmark (its mean where
pytest-benchmark gives no median), sorted by name, as
``{"medians": {...}, "run": ID, "schema": 1, "type": "bench"}`` with sorted
keys.  CI keeps that history (``campaign-history.jsonl``) in its actions
cache across runs::

    python benchmarks/check_timings.py benchmark-timings.json \
        --history campaign-history.jsonl --run "$GITHUB_RUN_ID"
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "baseline_timings.json")
DEFAULT_TOLERANCE = 0.25
#: Benchmarks faster than this (in both runs) are excluded from gating:
#: sub-10ms means are dominated by scheduler/allocator noise, and a 25%
#: swing there says nothing about the code.
DEFAULT_MIN_SECONDS = 0.01
#: Backstop on the normalization itself: with few gated benchmarks a
#: *correlated* regression (everything sharing the hot flow path slowing
#: down together) shifts the median and would otherwise normalize itself
#: away.  CI runners of one class vary well under this factor, so a median
#: ratio outside [1/x, x] is treated as a suite-wide regression (or a
#: baseline from a very different machine — regenerate it), not as machine
#: speed.
DEFAULT_MAX_MACHINE_FACTOR = 1.75
BASELINE_SCHEMA = 1
HISTORY_SCHEMA = 1


def _per_benchmark(path: str, statistic: Callable[[Dict[str, object]], object],
                   ) -> Dict[str, float]:
    """``statistic(stats)`` of every benchmark in a ``--benchmark-json``
    file, by full name, where it is a number."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    values: Dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        value = statistic(bench.get("stats") or {})
        if name and isinstance(value, (int, float)):
            values[str(name)] = float(value)
    return values


def load_current(path: str) -> Dict[str, float]:
    """Mean seconds per benchmark from a ``--benchmark-json`` file."""
    means = _per_benchmark(path, lambda stats: stats.get("mean"))
    return {name: mean for name, mean in means.items() if mean > 0}


def load_medians(path: str) -> Dict[str, float]:
    """Median seconds per benchmark (the mean where there is no median)."""
    return _per_benchmark(
        path, lambda stats: stats.get("median", stats.get("mean")))


def append_history(path: str, medians: Dict[str, float], run: str) -> None:
    """Append one ``type: "bench"`` record to the JSONL trend history."""
    record = {"schema": HISTORY_SCHEMA, "type": "bench", "run": run,
              "medians": dict(sorted(medians.items()))}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_baseline(path: str) -> Dict[str, float]:
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") != BASELINE_SCHEMA:
        return {}
    benchmarks = data.get("benchmarks", {})
    return {str(name): float(mean) for name, mean in benchmarks.items()
            if isinstance(mean, (int, float)) and mean > 0}


def write_baseline(path: str, means: Dict[str, float]) -> None:
    payload = {
        "schema": BASELINE_SCHEMA,
        "note": ("Mean benchmark wall times (seconds). Regenerate with "
                 "REPRO_UPDATE_BASELINE=1 python benchmarks/check_timings.py "
                 "<benchmark-json>; comparisons are normalized by the "
                 "median ratio (bounded at 1.75x suite-wide drift), so "
                 "runner-speed differences largely cancel."),
        "benchmarks": {name: round(mean, 9)
                       for name, mean in sorted(means.items())},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def compare(
    current: Dict[str, float],
    baseline: Dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    max_machine_factor: float = DEFAULT_MAX_MACHINE_FACTOR,
) -> Tuple[List[str], List[str]]:
    """Return ``(regressions, notes)``.

    ``regressions`` lines fail the gate; ``notes`` are informational
    (side-only benchmarks, the normalization factor, skipped micro
    benchmarks, improvements).
    """
    shared = sorted(set(current) & set(baseline))
    notes: List[str] = []
    for name in sorted(set(current) - set(baseline)):
        notes.append(f"new benchmark (no baseline): {name}")
    for name in sorted(set(baseline) - set(current)):
        notes.append(f"baseline benchmark missing from this run: {name}")
    if not shared:
        notes.append("no shared benchmarks; nothing to compare")
        return [], notes

    ratios = {name: current[name] / baseline[name] for name in shared}
    gated = [name for name in shared
             if max(current[name], baseline[name]) >= min_seconds]
    skipped = len(shared) - len(gated)
    if skipped:
        notes.append(f"{skipped} micro benchmark(s) under {min_seconds}s "
                     "excluded from gating (noise-dominated)")
    # The machine factor comes from the substantial benchmarks only — micro
    # ratios are exactly the noise the normalization must not absorb.
    machine = _median([ratios[name] for name in (gated or shared)])
    notes.append(f"machine-speed normalization factor: {machine:.3f}x")

    regressions: List[str] = []
    if not (1.0 / max_machine_factor <= machine <= max_machine_factor):
        regressions.append(
            f"suite-wide drift: median ratio {machine:.2f}x is outside "
            f"[{1.0 / max_machine_factor:.2f}x, {max_machine_factor:.2f}x] "
            "— either a correlated regression of the shared hot path or a "
            "baseline from a very different machine (regenerate with "
            "REPRO_UPDATE_BASELINE=1)")
    for name in gated:
        normalized = ratios[name] / machine
        if normalized > 1.0 + tolerance:
            regressions.append(
                f"{name}: {current[name]:.4f}s vs baseline "
                f"{baseline[name]:.4f}s ({normalized:.2f}x normalized, "
                f"limit {1.0 + tolerance:.2f}x)")
        elif normalized < 1.0 - tolerance:
            notes.append(
                f"improvement: {name} at {normalized:.2f}x of baseline "
                "(consider regenerating the baseline)")
    return regressions, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare pytest-benchmark timings against the committed "
                    "baseline (median-normalized, >25%% regressions fail).")
    parser.add_argument("current", help="pytest --benchmark-json output file")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--min-seconds", type=float,
                        default=DEFAULT_MIN_SECONDS,
                        help="benchmarks faster than this on both sides are "
                             "excluded from gating (default 0.01)")
    parser.add_argument("--max-machine-factor", type=float,
                        default=DEFAULT_MAX_MACHINE_FACTOR,
                        help="fail when the median ratio itself leaves "
                             "[1/x, x] — a correlated regression cannot "
                             "hide in the normalization (default 1.75)")
    parser.add_argument("--history", default=None, metavar="PATH",
                        help="when the gate passes, append the run's "
                             "benchmark medians to this JSONL trend history")
    parser.add_argument("--run", default="", metavar="ID",
                        help="run label of the history record (CI passes "
                             "its run id)")
    args = parser.parse_args(argv)

    code = _gate(args)
    if code == 0 and args.history:
        medians = load_medians(args.current)
        if medians:
            append_history(args.history, medians, args.run)
            print(f"check_timings: appended {len(medians)} benchmark "
                  f"median(s) to {args.history}")
    return code


def _gate(args: argparse.Namespace) -> int:
    """The comparison against the baseline; 0 when the gate passes."""
    current = load_current(args.current)
    if not current:
        print(f"check_timings: no benchmark stats in {args.current}; "
              "nothing to check")
        return 0

    if os.environ.get("REPRO_UPDATE_BASELINE") == "1":
        write_baseline(args.baseline, current)
        print(f"check_timings: baseline regenerated with {len(current)} "
              f"benchmark(s) at {args.baseline}")
        return 0

    baseline = load_baseline(args.baseline)
    if not baseline:
        print(f"check_timings: no baseline at {args.baseline}; run with "
              "REPRO_UPDATE_BASELINE=1 to create one")
        return 0

    regressions, notes = compare(current, baseline, tolerance=args.tolerance,
                                 min_seconds=args.min_seconds,
                                 max_machine_factor=args.max_machine_factor)
    for note in notes:
        print(f"check_timings: {note}")
    if regressions:
        print(f"check_timings: {len(regressions)} benchmark(s) regressed "
              f">{args.tolerance:.0%} vs baseline:")
        for line in regressions:
            print(f"  REGRESSION {line}")
        return 1
    print(f"check_timings: {len(set(current) & set(baseline))} shared "
          f"benchmark(s) within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
