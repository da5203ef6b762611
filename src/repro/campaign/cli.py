"""``repro campaign`` — plan, run and fan in sharded campaigns.

Five subcommands mirror the CI nightly fleet's lifecycle::

    repro campaign plan --nightly --shards 4          # inspect the partition
    repro campaign run-shard --nightly --shard 2 --out shard-out
    repro campaign merge shard-*/ --out merged --history history.jsonl
    repro campaign report --history history.jsonl --markdown trend.md
    repro campaign bench --timings bench.json --history history.jsonl

``plan`` prints (or writes as JSON) the deterministic shard partition of a
spec; ``run-shard`` executes exactly one shard into a directory CI uploads
as an artifact; ``merge`` unions any number of shard directories
byte-stably, optionally appending the campaign's summary to a trend
history; ``report`` renders the history as JSON/markdown; ``bench``
appends a ``pytest-benchmark`` run's medians to the same history so perf
trajectories ride the campaign artifact.

The spec comes from ``--spec PATH`` or ``--nightly`` (the built-in nightly
campaign); ``--seed`` / ``--seed-from-date`` and ``--shards`` override the
spec so CI can pin the fleet size and vary the seed per night.

Also available as ``python -m repro campaign``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from repro.errors import ReproError


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", default=None, metavar="PATH",
                        help="campaign spec JSON (CampaignSpec.to_dict shape)")
    source.add_argument("--nightly", action="store_true",
                        help="use the built-in nightly campaign spec")
    seed_group = parser.add_mutually_exclusive_group()
    seed_group.add_argument("--seed", type=int, default=None,
                            help="override the spec's base seed")
    seed_group.add_argument("--seed-from-date", action="store_true",
                            help="seed from today's UTC date (YYYYMMDD) — "
                                 "the nightly-CI mode")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="override the spec's shard count (the CI matrix "
                             "width must match it)")


def _resolve_spec(args: argparse.Namespace):
    from repro.campaign.spec import CampaignSpec, default_nightly_spec

    seed: Optional[int] = args.seed
    if args.seed_from_date:
        from repro.verify.cli import _date_seed

        seed = _date_seed()
    if args.nightly:
        spec = default_nightly_spec()
    else:
        spec = CampaignSpec.load(args.spec)
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if args.shards is not None:
        overrides["shards"] = args.shards
    return dataclasses.replace(spec, **overrides) if overrides else spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Sharded campaigns over the JSONL stores: deterministic "
                    "partition, per-shard execution, byte-stable fan-in "
                    "merge and trend reporting.")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="print a spec's shard partition")
    _add_spec_arguments(plan)
    plan.add_argument("--json", default=None, metavar="PATH",
                      help="write {spec, plans} as JSON instead of a table")

    run = sub.add_parser("run-shard", help="execute one shard into a "
                                           "directory")
    _add_spec_arguments(run)
    run.add_argument("--shard", type=int, required=True, metavar="I",
                     help="shard index in [0, shards)")
    run.add_argument("--out", required=True, metavar="DIR",
                     help="shard output directory (corpus.jsonl, "
                          "store.jsonl, shard-metrics.json)")

    merge = sub.add_parser("merge", help="fan in shard directories")
    merge.add_argument("shard_dirs", nargs="+", metavar="SHARD_DIR",
                       help="directories written by run-shard")
    merge.add_argument("--out", default=None, metavar="DIR",
                       help="merged output directory (omit for a dry run: "
                            "statistics only)")
    merge.add_argument("--history", default=None, metavar="PATH",
                       help="append the campaign summary to this trend "
                            "history JSONL (needs --out)")
    merge.add_argument("--run", default="", metavar="LABEL",
                       help="run label recorded in the trend entry "
                            "(CI passes its run id)")
    merge.add_argument("--report-json", default=None, metavar="PATH",
                       help="also write the merge report JSON here")

    report = sub.add_parser("report", help="render a trend history")
    report.add_argument("--history", required=True, metavar="PATH")
    report.add_argument("--json", default=None, metavar="PATH",
                        help="write the trend report as JSON")
    report.add_argument("--markdown", default=None, metavar="PATH",
                        help="write the trend report as markdown")
    report.add_argument("--last", type=int, default=None, metavar="N",
                        help="only the most recent N records of each type")

    bench = sub.add_parser("bench", help="append bench medians to a history")
    bench.add_argument("--timings", required=True, metavar="PATH",
                       help="pytest-benchmark --benchmark-json file")
    bench.add_argument("--history", required=True, metavar="PATH")
    bench.add_argument("--run", default="", metavar="LABEL")
    return parser


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.campaign.spec import plan_shards

    spec = _resolve_spec(args)
    plans = plan_shards(spec)
    if args.json:
        payload = {"spec": spec.to_dict(),
                   "plans": [plan.to_dict() for plan in plans]}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
        return 0
    total_points = sum(len(job.points()) for job in spec.sweeps)
    print(f"campaign {spec.name!r}: seed {spec.seed}, {spec.shards} shard(s), "
          f"{spec.fuzz_iterations} fuzz iteration(s), {total_points} sweep "
          f"point(s), {len(spec.explorations)} exploration(s)")
    for plan in plans:
        print(f"  shard {plan.index}: fuzz seed {plan.fuzz_seed} "
              f"x{plan.fuzz_iterations}, {plan.sweep_point_count} sweep "
              f"point(s), explorations {list(plan.explorations)}")
    return 0


def _cmd_run_shard(args: argparse.Namespace) -> int:
    from repro.campaign.shard import run_shard

    spec = _resolve_spec(args)
    manifest = run_shard(spec, args.shard, args.out, progress=print)
    fuzz = manifest.get("fuzz", {})
    print(f"shard {args.shard}/{spec.shards} of {spec.name!r} -> {args.out}: "
          f"{manifest['corpus_records']} corpus record(s), "
          f"{manifest['store_records']} store record(s), "
          f"{fuzz.get('failures', 0)} fuzz failure(s)")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.campaign.merge import merge_shards
    from repro.campaign.trend import append_trend, campaign_summary

    if args.history and not args.out:
        raise ReproError("--history needs --out (the summary is computed "
                         "from the merged files)")
    report = merge_shards(args.shard_dirs, args.out)
    for section in ("corpus", "store"):
        stats = report[section]
        print(f"{section}: {stats['records_in']} in -> {stats['unique']} "
              f"unique ({stats['exact_duplicates']} duplicate(s), "
              f"{stats['conflicts']} conflict(s), "
              f"{stats['skipped_lines']} skipped line(s)) "
              f"sha256 {stats['sha256'][:16]}…")
    print(f"merge {'clean' if report['clean'] else 'NOT clean'} across "
          f"{len(report['shard_dirs'])} shard(s)"
          + (f" -> {args.out}" if args.out else " (dry run)"))
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.report_json}")
    if args.history:
        entry = campaign_summary(report, args.out, run=args.run)
        append_trend(args.history, entry)
        print(f"appended campaign summary to {args.history}")
    return 0 if report["clean"] else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.campaign.trend import (
        load_history,
        render_trend_markdown,
        trend_report,
        write_trend_report,
    )

    records, skipped = load_history(args.history)
    if skipped:
        print(f"warning: {skipped} corrupt line(s) skipped in "
              f"{args.history}", file=sys.stderr)
    report = trend_report(records, last=args.last)
    if args.json or args.markdown:
        write_trend_report(report, json_path=args.json,
                           markdown_path=args.markdown)
        for path in (args.json, args.markdown):
            if path:
                print(f"wrote {path}")
    else:
        print(render_trend_markdown(report), end="")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.campaign.trend import append_trend, bench_entry

    entry = bench_entry(args.timings, run=args.run)
    append_trend(args.history, entry)
    print(f"appended {len(entry['medians'])} benchmark median(s) to "
          f"{args.history}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "plan": _cmd_plan,
        "run-shard": _cmd_run_shard,
        "merge": _cmd_merge,
        "report": _cmd_report,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"repro campaign: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
