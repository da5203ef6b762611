"""``repro verify`` — differential scenario fuzzing from the command line.

Four subcommands::

    repro verify run --iterations 200 --seed 0 --corpus fuzz.jsonl
    repro verify run --seed 20261019 --iterations 100 --max-segments 5 \
        --budget-seconds 480 --oracle-deadline 60 \
        --corpus fuzz-out/corpus.jsonl  # a nightly shard
    repro verify merge --out merged/corpus.jsonl shard-*/corpus.jsonl
    repro verify replay --corpus fuzz.jsonl
    repro verify shrink --corpus fuzz.jsonl --entry <fingerprint-prefix>

``run`` fuzzes the differential oracles over seeded scenarios (round-robin)
under an iteration and/or wall-clock budget, appending violations — shrunk
first — to the corpus; its exit status is non-zero when violations were
found.  ``merge`` unions corpora (the nightly shards') into one with
:meth:`Corpus.merge <repro.core.jsonl.KeyedStore.merge>` and exits
non-zero unless the union is clean.  ``replay`` re-runs every stored
corpus record against its oracle (the standing regression gate).
``shrink`` minimizes one stored entry further, with a larger evaluation
budget than the in-run shrink.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.errors import ReproError
from repro.verify.corpus import Corpus
from repro.verify.oracles import ORACLES, select_oracles
from repro.verify.runner import run_fuzz, replay_corpus, shrink_failure, FuzzFailure
from repro.verify.scenarios import ScenarioProfile


def _parse_oracles(text: Optional[str]) -> Optional[List[str]]:
    if not text:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def _date_seed() -> int:
    """The nightly seed: today's UTC date as YYYYMMDD (printed, replayable)."""
    today = datetime.datetime.now(datetime.timezone.utc).date()
    return int(today.strftime("%Y%m%d"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro verify",
        description="Differential scenario fuzzing with shrinking over the "
                    "repo's paired engines (incremental vs reference timing, "
                    "Bellman-Ford vs topological, batched vs per-point "
                    "sweeps, analysis cache, Pareto invariants).")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="fuzz scenarios against the oracles")
    run.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="number of scenario/oracle checks (default: 200 "
                          "unless --budget-seconds is given)")
    run.add_argument("--budget-seconds", type=float, default=None, metavar="S",
                     help="wall-clock budget; the run stops at its end, "
                          "a check in flight included (that check counts "
                          "as unchecked, not as a violation)")
    run.add_argument("--oracle-deadline", type=float, default=None,
                     metavar="S",
                     help="per-oracle wall-clock deadline; an oracle still "
                          "running at the deadline is stopped and recorded "
                          "as a structured timeout failure (default: "
                          "unbounded, but --budget-seconds stops every "
                          "check at the end of the budget)")
    seed_group = run.add_mutually_exclusive_group()
    seed_group.add_argument("--seed", type=int, default=0,
                            help="base seed of the scenario stream (default 0)")
    seed_group.add_argument("--seed-from-date", action="store_true",
                            help="seed from today's UTC date (YYYYMMDD) — "
                                 "the nightly-CI mode; the seed is printed "
                                 "so any failure replays")
    run.add_argument("--oracles", type=_parse_oracles, default=None,
                     metavar="A,B", help="comma-separated oracle subset "
                     "(default: all)")
    run.add_argument("--corpus", default=None, metavar="PATH",
                     help="JSONL corpus to append failures to")
    run.add_argument("--no-shrink", action="store_true",
                     help="record failures unshrunk")
    run.add_argument("--shrink-evaluations", type=int, default=200,
                     help="oracle-evaluation budget per shrink (default 200)")
    run.add_argument("--max-segments", type=int, default=None,
                     help="cap generated scenarios at this many segments")
    run.add_argument("--oracle-timings", default=None, metavar="PATH",
                     help="write a per-oracle JSON report (checked counts, "
                          "wall-time summaries from the repro.obs registry, "
                          "pass/fail/crash tallies) — the nightly-CI "
                          "artifact")
    run.add_argument("--list-oracles", action="store_true",
                     help="print the oracle registry and exit")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-failure detail lines")

    merge = sub.add_parser("merge",
                           help="union corpora into one (the nightly fan-in)")
    merge.add_argument("corpora", nargs="+", metavar="CORPUS",
                       help="corpus files; a missing one merges as empty")
    merge.add_argument("--out", required=True, metavar="PATH",
                       help="merged corpus to write")

    replay = sub.add_parser("replay",
                            help="re-run every stored corpus record")
    replay.add_argument("--corpus", required=True, metavar="PATH")
    replay.add_argument("--oracles", type=_parse_oracles, default=None,
                        metavar="A,B")

    shrink = sub.add_parser("shrink",
                            help="minimize one stored corpus entry further")
    shrink.add_argument("--corpus", required=True, metavar="PATH")
    shrink.add_argument("--entry", required=True, metavar="FPREFIX",
                        help="fingerprint (prefix) of the corpus entry")
    shrink.add_argument("--shrink-evaluations", type=int, default=1000,
                        help="oracle-evaluation budget (default 1000)")
    return parser


def _print_oracles() -> None:
    width = max(len(name) for name in ORACLES)
    for name, oracle in ORACLES.items():
        print(f"{name.ljust(width)}  {oracle.description}")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list_oracles:
        _print_oracles()
        return 0
    iterations = args.iterations
    if iterations is None and args.budget_seconds is None:
        iterations = 200
    seed = _date_seed() if args.seed_from_date else args.seed
    corpus = Corpus(args.corpus) if args.corpus else None
    profile = None
    if args.max_segments is not None:
        profile = ScenarioProfile(max_segments=max(1, args.max_segments))

    report = run_fuzz(
        seed=seed,
        iterations=iterations,
        budget_seconds=args.budget_seconds,
        oracle_names=args.oracles,
        corpus=corpus,
        shrink=not args.no_shrink,
        shrink_evaluations=args.shrink_evaluations,
        profile=profile,
        oracle_deadline_seconds=args.oracle_deadline,
    )

    print(f"seed {seed}: {report.iterations} scenario check(s) in "
          f"{report.wall_time_seconds:.1f}s"
          + (" (budget exhausted)" if report.budget_exhausted else ""))
    if report.cut_short:
        print(f"1 check cut short by the budget ({report.cut_short})")
    for name, count in sorted(report.checked_per_oracle.items()):
        print(f"  {name}: {count} checked")
    print(f"scenario digest: {report.scenario_digest}")
    if args.oracle_timings:
        _write_oracle_timings(args.oracle_timings, report)
        print(f"oracle timings: {args.oracle_timings}")
    if report.ok:
        print("no oracle violations")
        return 0

    print(f"{len(report.failures)} oracle violation(s)")
    if not args.quiet:
        for failure in report.failures:
            _print_failure(failure)
    if corpus is not None:
        print(f"corpus: {corpus.path} ({len(corpus)} record(s))")
    return 1


def _write_oracle_timings(path: str, report) -> None:
    """The nightly artifact: per-oracle wall-time + outcome JSON report.

    Checked counts come from the fuzz report itself; the timing summaries
    and the pass/fail/crash tallies come from the :mod:`repro.obs.metrics`
    registry (the ``oracle.<name>.seconds`` histograms populated by
    :func:`~repro.verify.runner.run_oracle_guarded`).
    """
    from repro.obs.metrics import snapshot

    snap = snapshot()
    counters = snap["counters"]
    histograms = snap["histograms"]
    payload = {
        "seed": report.seed,
        "iterations": report.iterations,
        "wall_time_seconds": report.wall_time_seconds,
        "outcomes": {
            "pass": counters.get("oracle.pass", 0),
            "fail": counters.get("oracle.fail", 0),
            "crash": counters.get("oracle.crash", 0),
        },
        "oracles": {
            name: {
                "checked": count,
                "seconds": histograms.get(f"oracle.{name}.seconds", {}),
            }
            for name, count in sorted(report.checked_per_oracle.items())
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _print_failure(failure: FuzzFailure) -> None:
    print(f"  [{failure.oracle}] iteration {failure.iteration} "
          f"seed {failure.spec.seed} fingerprint {failure.fingerprint[:16]}…")
    print(f"    {failure.details}")
    if failure.shrunk is not None:
        shrunk = failure.shrunk
        print(f"    shrunk: {failure.spec.num_design_ops()} -> "
              f"{shrunk.spec.num_design_ops()} design ops in "
              f"{shrunk.evaluations} evaluation(s)")
        print(f"    reproducer: {json.dumps(shrunk.spec.to_dict(), sort_keys=True)}")


def _cmd_merge(args: argparse.Namespace) -> int:
    stats = Corpus.merge(args.corpora, args.out)
    for entry in stats.inputs:
        print(f"  {entry['path']}: {entry['records']} record(s), "
              f"{entry['skipped_lines']} skipped line(s)")
    print(f"merged {stats.records_in} record(s) into {stats.unique} unique "
          f"({stats.exact_duplicates} duplicate(s), {stats.conflicts} "
          f"conflict(s), {stats.skipped_lines} skipped line(s)) -> "
          f"{args.out}, sha256 {stats.sha256[:16]}")
    if stats.clean:
        print("merge clean")
        return 0
    print("merge NOT clean: a corrupt line or conflicting payloads")
    return 1


def _cmd_replay(args: argparse.Namespace) -> int:
    corpus = Corpus(args.corpus)
    if len(corpus) == 0:
        print(f"corpus {args.corpus}: no records")
        return 0
    outcomes = replay_corpus(corpus, oracle_names=args.oracles)
    still_failing = [outcome for outcome in outcomes if not outcome.ok]
    fixed = len(outcomes) - len(still_failing)
    print(f"replayed {len(outcomes)} record(s): {len(still_failing)} still "
          f"failing, {fixed} fixed")
    for outcome in still_failing:
        print(f"  [{outcome.oracle}] {outcome.details}")
    return 1 if still_failing else 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    corpus = Corpus(args.corpus)
    matches = corpus.find(args.entry)
    if not matches:
        print(f"no corpus entry matches fingerprint prefix {args.entry!r}",
              file=sys.stderr)
        return 2
    if len(matches) > 1:
        print(f"fingerprint prefix {args.entry!r} is ambiguous "
              f"({len(matches)} matches)", file=sys.stderr)
        return 2
    record = matches[0]
    spec = corpus.spec_of(record)
    oracle = select_oracles([record["oracle"]])[0]
    failure = FuzzFailure(iteration=-1, oracle=oracle.name,
                          details=str(record.get("details", "")),
                          spec=spec, fingerprint=str(record["fingerprint"]))
    result = shrink_failure(failure, oracle,
                            max_evaluations=args.shrink_evaluations)
    outcome = oracle.run(result.spec)
    if outcome.ok:
        print("entry no longer fails its oracle; nothing to shrink")
        return 0
    corpus.add(result.spec, oracle.name, outcome.details, kind="shrunk",
               shrunk_from=str(record["fingerprint"]))
    print(f"shrunk {spec.num_design_ops()} -> {result.spec.num_design_ops()} "
          f"design ops in {result.evaluations} evaluation(s)")
    print(json.dumps(result.spec.to_dict(), sort_keys=True))
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "merge":
            return _cmd_merge(args)
        if args.command == "replay":
            return _cmd_replay(args)
        return _cmd_shrink(args)
    except (ReproError, OSError) as exc:
        print(f"repro verify: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
