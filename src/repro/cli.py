"""The unified ``repro`` command-line interface.

One console script with a subcommand per subsystem::

    repro explore ...   # adaptive Pareto exploration (repro.explore.cli)
    repro verify ...    # differential scenario fuzzing (repro.verify.cli)
    repro sweep ...     # batched Table-4-style sweep via SweepSession

``repro explore`` and ``repro verify`` forward their remaining arguments to
the subsystem CLIs unchanged.  ``repro sweep`` is the session API's own
entry point: it runs the paper's 15-point IDCT sweep (or a custom latency
grid) through one :class:`repro.flows.sweep.SweepSession` and prints the
Table-4 area comparison plus the session's reuse statistics.  A point that
fails is left out of the table and reported on stderr, and the command
exits 1.  ``python -m repro`` runs the same dispatcher.

Observability hooks (see :mod:`repro.obs`)::

    repro profile sweep [options]   # run under the tracer, print the
                                    # phase-breakdown profile, optionally
                                    # export JSON / span JSONL / Chrome trace
    repro <command> --trace-out spans.jsonl ...
                                    # any command: record spans, write JSONL

Tracing is observation-only — a traced run produces byte-identical results
to an untraced one (the golden Table-4 metrics pin this).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

_USAGE = """\
usage: repro <command> [options]

commands:
  explore   adaptive Pareto-front exploration (see: repro explore --help)
  verify    differential scenario fuzzing     (see: repro verify --help)
  sweep     batched DSE sweep via SweepSession (see: repro sweep --help)
  serve     memoizing multi-tenant DSE service: submit / run / status /
            result / stats / http / smoke      (see: repro serve --help)
  profile   run a command under the span tracer and print the phase
            breakdown                          (see: repro profile --help)

every command also accepts --trace-out PATH to record hierarchical spans
to a JSONL file (convert with repro.obs.export.jsonl_to_chrome_trace).
"""


def _build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run a batched design-space sweep through one "
                    "SweepSession and print the Table-4 area comparison.",
    )
    parser.add_argument("--rows", type=int, default=2,
                        help="IDCT rows per design (8 = the paper's full "
                             "8x8 row pass; default 2)")
    parser.add_argument("--clock", type=float, default=1500.0,
                        help="clock period in ps (default 1500)")
    parser.add_argument("--margin", type=float, default=0.05,
                        help="slack-budgeting margin fraction (default 0.05)")
    parser.add_argument("--latencies", default=None, metavar="LO:HI",
                        help="sweep a dense latency grid instead of the "
                             "paper's 15 Table-4 points")
    parser.add_argument("--ii", default=None, metavar="LO:HI",
                        help="pipeline the design (scheduling='pipeline') and "
                             "sweep the initiation interval over [LO, HI]; "
                             "uses the lowest --latencies value as the fixed "
                             "latency (default 8)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the per-point metrics list as JSON")
    parser.add_argument("--stats", action="store_true",
                        help="print the session's reuse statistics")
    return parser


def _sweep_main(argv: Sequence[str]) -> int:
    from repro.errors import ReproError
    from repro.flows import (
        DesignPoint,
        SweepSession,
        format_table,
        idct_design_points,
        latency_grid,
        table4_rows,
    )
    from repro.lib.tsmc90 import tsmc90_library
    from repro.workloads.factories import IDCTPointFactory

    from repro.obs.trace import span as _obs_span

    args = _build_sweep_parser().parse_args(argv)
    try:
        latency_lo = None
        if args.latencies:
            low, _, high = args.latencies.partition(":")
            try:
                latency_lo = int(low)
                points = latency_grid(latency_lo, int(high or low),
                                      clock_period=args.clock)
            except ValueError:
                print(f"repro sweep: --latencies expects LO:HI, got "
                      f"{args.latencies!r}", file=sys.stderr)
                return 2
        else:
            points = idct_design_points(clock_period=args.clock)
        scheduling = "block"
        if args.ii:
            low, _, high = args.ii.partition(":")
            try:
                ii_lo, ii_hi = int(low), int(high or low)
            except ValueError:
                print(f"repro sweep: --ii expects LO:HI, got {args.ii!r}",
                      file=sys.stderr)
                return 2
            if ii_lo < 1 or ii_hi < ii_lo:
                print(f"repro sweep: --ii expects LO:HI with 1 <= LO <= HI, "
                      f"got {args.ii!r}", file=sys.stderr)
                return 2
            # The II sweep replaces the latency axis: one pipelined point
            # per candidate interval at a fixed latency.
            scheduling = "pipeline"
            latency = latency_lo if latency_lo is not None else 8
            points = [DesignPoint(name=f"II{ii}", latency=latency,
                                  pipeline_ii=ii, clock_period=args.clock)
                      for ii in range(ii_lo, ii_hi + 1)]
        with _obs_span("lib.build", library="tsmc90"):
            library = tsmc90_library()
        session = SweepSession(IDCTPointFactory(rows=args.rows),
                               library,
                               margin_fraction=args.margin,
                               scheduling=scheduling)
        result = session.run(points)
    except ReproError as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 1

    if result.entries:
        header, rows = table4_rows(result)
        print(format_table(
            header, rows,
            title=f"Sweep: {len(result.entries)} point(s), IDCT "
                  f"rows={args.rows}, T={args.clock:.0f} ps — "
                  f"{result.wall_time_seconds:.2f} s"))
        print(f"average saving: {result.average_saving_percent():.1f} %")
    for failure in result.failures:
        print(f"repro sweep: {failure.point.name} failed: {failure.error}",
              file=sys.stderr)
    if args.stats:
        stats = session.stats.as_dict()
        print(format_table(
            ["session statistic", "value"],
            [[key, str(value)] for key, value in stats.items()],
            title="SweepSession reuse"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.metrics_list(), handle, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    return 1 if result.failures else 0


def _run_command(command: str, rest: Sequence[str]) -> Optional[int]:
    """Dispatch one subcommand; ``None`` means the command is unknown."""
    if command == "explore":
        from repro.explore.cli import main as explore_main

        return explore_main(list(rest))
    if command == "verify":
        from repro.verify.cli import main as verify_main

        return verify_main(list(rest))
    if command == "sweep":
        return _sweep_main(rest)
    if command == "serve":
        from repro.serve.cli import main as serve_main

        return serve_main(list(rest))
    if command == "profile":
        return _profile_main(rest)
    return None


def _extract_trace_out(argv: Sequence[str]) -> tuple:
    """Strip ``--trace-out PATH`` / ``--trace-out=PATH`` from ``argv``.

    Handled in the dispatcher so every subcommand gets the flag without its
    own parser knowing about it.  Returns ``(path_or_None, remaining_args)``
    and raises :class:`ValueError` when the flag is left without a value.
    """
    path: Optional[str] = None
    rest = []
    index = 0
    argv = list(argv)
    while index < len(argv):
        arg = argv[index]
        if arg == "--trace-out":
            if index + 1 >= len(argv):
                raise ValueError("--trace-out expects a PATH argument")
            path = argv[index + 1]
            index += 2
            continue
        if arg.startswith("--trace-out="):
            path = arg.split("=", 1)[1]
            index += 1
            continue
        rest.append(arg)
        index += 1
    return path, rest


def _build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Run a repro subcommand under the hierarchical span "
                    "tracer and print its per-phase time breakdown "
                    "(schedule / bind / timing / area-recovery / delta-eval) "
                    "plus a cache-efficiency summary.  Remaining arguments "
                    "are forwarded to the profiled subcommand unchanged.",
        allow_abbrev=False,
    )
    parser.add_argument("command", choices=("sweep", "verify", "explore"),
                        help="the subcommand to run under the tracer")
    parser.add_argument("--report-json", default=None, metavar="PATH",
                        help="write the profile report as JSON")
    parser.add_argument("--jsonl-out", default=None, metavar="PATH",
                        help="write the recorded spans as JSONL records")
    parser.add_argument("--chrome-out", default=None, metavar="PATH",
                        help="write a Chrome trace-event file (load in "
                             "Perfetto / chrome://tracing)")
    parser.add_argument("--top", type=int, default=10,
                        help="number of spans in the top-by-self-time table "
                             "(default 10)")
    return parser


def _profile_main(argv: Sequence[str]) -> int:
    import time

    from repro.obs.export import write_chrome_trace, write_spans_jsonl
    from repro.obs.profile import format_profile_markdown, profile_report
    from repro.obs.trace import tracing

    args, forwarded = _build_profile_parser().parse_known_args(list(argv))
    start = time.perf_counter()
    with tracing() as tracer:
        code = _run_command(args.command, forwarded)
    wall = time.perf_counter() - start
    roots = tracer.roots
    report = profile_report(roots, wall_seconds=wall, top=args.top)
    print(format_profile_markdown(
        report, title=f"Phase profile: repro {args.command}"))
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.report_json}")
    if args.jsonl_out:
        write_spans_jsonl(roots, args.jsonl_out)
        print(f"wrote {args.jsonl_out}")
    if args.chrome_out:
        write_chrome_trace(roots, args.chrome_out)
        print(f"wrote {args.chrome_out}")
    return code if code is not None else 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    try:
        trace_out, rest = _extract_trace_out(rest)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if trace_out is None:
        code = _run_command(command, rest)
    else:
        from repro.obs.export import write_spans_jsonl
        from repro.obs.trace import tracing

        with tracing() as tracer:
            code = _run_command(command, rest)
        if code is not None:
            write_spans_jsonl(tracer.roots, trace_out)
            print(f"wrote {trace_out}")
    if code is None:
        print(f"repro: unknown command {command!r}\n\n{_USAGE}",
              end="", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
