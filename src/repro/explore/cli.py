"""``repro explore`` — the exploration subsystem's command-line front end.

Runs an adaptive (default) or dense latency exploration of one workload,
prints the frontier, and optionally persists the result store plus JSON /
markdown reports::

    repro explore --workload idct --rows 2 --latencies 8:32 --clock 1500 \\
        --store sweeps.jsonl --json frontier.json --markdown frontier.md

    repro explore --workload fir --param taps=8 --latencies 4:12 --dense

A rerun with the same ``--store`` resumes: stored points are restored, not
re-evaluated.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.lib import tsmc90_library
from repro.workloads.factories import WORKLOAD_NAMES, resolve_factory
from repro.explore.adaptive import AdaptiveExplorer, RefinementPolicy
from repro.explore.report import frontier_report, frontier_text_table, write_report
from repro.explore.store import ResultStore


def _parse_latencies(spec: str) -> List[int]:
    """``"8:32"`` -> [8..32]; ``"8,12,16"`` -> [8, 12, 16]."""
    if ":" in spec:
        lo_text, hi_text = spec.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty latency range {spec!r}")
        return list(range(lo, hi + 1))
    return [int(part) for part in spec.split(",") if part]


def _parse_param(pair: str) -> Tuple[str, int]:
    """``"taps=8"`` -> ``("taps", 8)`` (argparse ``type=``, so malformed
    pairs become a clean usage error, not a traceback)."""
    if "=" not in pair:
        raise argparse.ArgumentTypeError(
            f"--param expects name=value, got {pair!r}")
    name, value = pair.split("=", 1)
    try:
        return name, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--param {name} expects an integer value, got {value!r}")


def _factory_for(args: argparse.Namespace):
    params = dict(args.params)
    if args.workload == "idct":
        params.setdefault("rows", args.rows)
    return resolve_factory(args.workload, params)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro explore",
        description="Adaptive Pareto exploration of an HLS workload's "
                    "latency/area design space.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default="idct")
    parser.add_argument("--rows", type=int, default=2,
                        help="IDCT rows per design (idct workload only)")
    parser.add_argument("--param", dest="params", action="append", default=[],
                        type=_parse_param, metavar="NAME=VALUE",
                        help="workload builder parameter (repeatable), "
                             "e.g. --param taps=8")
    parser.add_argument("--latencies", type=_parse_latencies, default="8:32",
                        help="candidate grid: LO:HI or comma list (default 8:32)")
    parser.add_argument("--clock", type=float, default=1500.0,
                        help="clock period in ps (default 1500)")
    parser.add_argument("--margin", type=float, default=0.05,
                        help="slack-budgeting margin fraction (default 0.05)")
    parser.add_argument("--objectives", default="latency_steps,area",
                        help="comma-separated Pareto objectives "
                             "(default latency_steps,area)")
    parser.add_argument("--flow", choices=("slack_based", "conventional"),
                        default="slack_based")
    parser.add_argument("--dense", action="store_true",
                        help="evaluate the full grid instead of exploring "
                             "adaptively")
    parser.add_argument("--coarse", type=int, default=5,
                        help="coarse-grid size of the adaptive mode")
    parser.add_argument("--width-stop", type=int, default=3,
                        help="refinement resolution floor in latency states")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="persistent JSONL result store (resumes for free)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the frontier report as JSON")
    parser.add_argument("--markdown", default=None, metavar="PATH",
                        help="write the frontier report as markdown")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes per evaluation wave "
                             "(default: one per CPU)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.params = tuple(args.params)
    if isinstance(args.latencies, str):
        args.latencies = _parse_latencies(args.latencies)

    library = tsmc90_library()
    try:
        store = ResultStore(args.store) if args.store else None
        explorer = AdaptiveExplorer(
            _factory_for(args), library, args.latencies,
            clock_period=args.clock,
            margin_fraction=args.margin,
            objectives=tuple(part for part in args.objectives.split(",") if part),
            flow=args.flow,
            policy=RefinementPolicy(coarse_points=args.coarse,
                                    width_stop=args.width_stop),
            store=store,
            workload=args.workload,
            workers=args.workers,
        )
        result = explorer.explore_dense() if args.dense else explorer.explore()
    except ReproError as exc:
        print(f"repro explore: {exc}", file=sys.stderr)
        return 1

    title = (f"{result.workload} {result.mode} frontier "
             f"({result.flow}, {len(result.front)} point(s))")
    print(frontier_text_table(result, title=title))
    print()
    print(f"engine evaluations: {result.engine_evaluations} "
          f"({result.flow_runs} flow runs), restored: {result.restored}, "
          f"deduplicated: {result.deduplicated}, waves: {result.waves}")
    if result.front:
        print(f"hypervolume: {result.hypervolume():.6g}, "
              f"knee: {result.knee().label}")

    report = frontier_report(result)
    write_report(report, json_path=args.json, markdown_path=args.markdown)
    for path in (args.json, args.markdown):
        if path:
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
