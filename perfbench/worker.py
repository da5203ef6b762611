"""One cold run of one workload, in the fresh interpreter that runs this file.

Prints one JSON object on its last line of output: the set-up time, the
per-unit latencies of the cold and warm passes, failures, the correctness
problems found, the result digest and, with ``--trace``, the per-layer
metrics.  ``run.py`` starts this script once per repetition, so every
repetition starts with empty caches; the worker checks that they are.

    python3 perfbench/worker.py --workload pipeline-ii --seed 1 [--trace]
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _counts(tree):
    """Every counter and size in a ``cache_stats()`` tree (not the bounds)."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _counts(value)
        elif key != "maxsize":
            yield value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (extra set-up samples)")
    parser.add_argument("--spans", default=None,
                        help="with --trace: write the spans here (JSONL)")
    parser.add_argument("--workdir", required=True,
                        help="scratch directory for files the workload writes")
    args = parser.parse_args(argv)

    import stats
    import suite
    from repro.obs.metrics import cache_stats

    start_caches = cache_stats()
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    workdir = tempfile.mkdtemp(prefix="run-", dir=args.workdir)
    try:
        run = suite.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        outcome = run(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = list(outcome.problems)
    cold_start = not any(_counts(start_caches))
    if not cold_start:
        problems.append("caches were not empty at start")
    report = {
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "cold_ms": outcome.cold_ms,
        "warm_ms": outcome.warm_ms,
        "point_ms": outcome.point_ms,
        "unit_ms": outcome.unit_ms,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "problems": problems,
        "digest": stats.digest(outcome.results),
        "savings": outcome.savings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "cold_start": cold_start,
    }
    if tracer is not None:
        report["layers"] = layers.layer_metrics(
            tracer.spans, cache_stats(), outcome.repeat_structure_ratio)
        report["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
