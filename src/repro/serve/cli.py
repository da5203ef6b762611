"""``repro serve`` — the DSE service from the command line.

Subcommands::

    repro serve submit --queue q.jsonl --job job.json   # enqueue one job
    repro serve run    --queue q.jsonl --store s.jsonl  # drain pending jobs
    repro serve status JOB --queue q.jsonl              # one job's state
    repro serve result JOB --queue q.jsonl              # a done job's result
    repro serve stats  --queue q.jsonl --store s.jsonl  # queue + cache stats
    repro serve http   --port 8321 --queue ... --store ...  # HTTP front end
    repro serve smoke  [--keep DIR]                     # the CI smoke check

``submit``/``run`` decouple accepting work from doing it: the queue file is
the contract, so a cron job can submit and a worker box can run.  ``smoke``
is the self-contained CI gate: it submits a small IDCT sweep to an
in-process service, drains it, asserts the status transitions, resubmits
the identical job and asserts the warm run completes with **zero** new flow
evaluations (the memo tier's core promise) and counted its hits, and that a
resubmission to the same service is keyed from memory; then it checks an
explore job cold and warm, exiting non-zero on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from typing import Optional, Sequence

from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Memoizing multi-tenant DSE service: submit-design / "
                    "sweep / explore jobs over a persistent queue with a "
                    "shared fingerprint-keyed result cache.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, store=True):
        p.add_argument("--queue", required=True, metavar="PATH",
                       help="JSONL job-queue journal")
        if store:
            p.add_argument("--store", default=None, metavar="PATH",
                           help="JSONL result store backing the memo tier "
                                "(default: in-memory)")

    submit = sub.add_parser("submit", help="validate and enqueue one job")
    common(submit, store=False)
    submit.add_argument("--job", required=True, metavar="PATH",
                        help="JSON job spec ({kind, payload, tenant}); "
                             "'-' reads stdin")

    run = sub.add_parser("run", help="execute pending jobs")
    common(run)
    run.add_argument("--max-jobs", type=int, default=None, metavar="N",
                     help="stop after N jobs (default: drain the queue)")
    run.add_argument("--workers", dest="sweep_workers", type=int, default=1,
                     metavar="N",
                     help="worker processes for the uncached points of a "
                          "sweep or explore job (default 1)")
    run.add_argument("--deadline", type=float, default=None, metavar="S",
                     help="per-job wall-clock deadline in seconds")
    run.add_argument("--retries", type=int, default=3, metavar="N",
                     help="max attempts per job (default 3)")
    run.add_argument("--compact-after", type=int, default=256, metavar="N",
                     help="compact the store once N superseded lines "
                          "accumulate (default 256)")

    status = sub.add_parser("status", help="print one job's status")
    status.add_argument("job_id")
    common(status, store=False)

    result = sub.add_parser("result", help="print a done job's result")
    result.add_argument("job_id")
    common(result, store=False)

    stats = sub.add_parser("stats", help="print queue and cache statistics")
    common(stats)

    http = sub.add_parser("http", help="serve the HTTP API")
    common(http)
    http.add_argument("--host", default="127.0.0.1")
    http.add_argument("--port", type=int, default=8321)
    http.add_argument("--workers", type=int, default=1,
                      help="background worker threads (default 1)")

    smoke = sub.add_parser("smoke",
                           help="CI gate: cold + warm in-process round trip")
    smoke.add_argument("--keep", default=None, metavar="DIR",
                       help="write the queue/store files here instead of a "
                            "temporary directory")
    return parser


def _service(args, evaluator=None, retry=None):
    from repro.serve.retry import RetryPolicy
    from repro.serve.service import DSEService

    if retry is None:
        retry = RetryPolicy(
            max_attempts=getattr(args, "retries", 3),
            deadline_seconds=getattr(args, "deadline", None))
    return DSEService(
        store_path=getattr(args, "store", None),
        queue_path=args.queue,
        retry=retry,
        workers=getattr(args, "sweep_workers", 1),
        evaluator=evaluator,
        compact_after=getattr(args, "compact_after", 256),
    )


def _print(payload) -> None:
    json.dump(payload, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_submit(args) -> int:
    from repro.serve.service import DSEService

    if args.job == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.job, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    service = DSEService(queue_path=args.queue)
    _print(service.submit(data))
    return 0


def _cmd_run(args) -> int:
    service = _service(args)
    executed = service.run_pending(max_jobs=args.max_jobs)
    counts = service.queue.counts()
    print(f"executed {executed} job(s); queue: "
          + ", ".join(f"{state}={count}"
                      for state, count in sorted(counts.items())))
    failed = counts.get("failed", 0) + counts.get("timeout", 0)
    return 1 if failed else 0


def _cmd_status(args) -> int:
    from repro.serve.service import DSEService

    _print(DSEService(queue_path=args.queue).status(args.job_id))
    return 0


def _cmd_result(args) -> int:
    from repro.serve.service import DSEService

    _print(DSEService(queue_path=args.queue).result(args.job_id))
    return 0


def _cmd_stats(args) -> int:
    _print(_service(args).stats())
    return 0


def _cmd_http(args) -> int:
    from repro.serve.http import make_server

    service = _service(args)
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    service.start_workers(args.workers)
    print(f"repro serve: listening on http://{host}:{port} "
          f"({args.workers} worker(s))")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop_workers()
        server.server_close()
    return 0


def _cmd_smoke(args) -> int:
    """Cold+warm round trips against in-process services (the CI gate)."""
    import os

    from repro.serve.fakes import explore_payload, sweep_payload
    from repro.serve.service import DSEService

    def check(condition: bool, what: str) -> None:
        if not condition:
            raise ReproError(f"serve smoke: {what}")

    workdir = args.keep or tempfile.mkdtemp(prefix="repro-serve-smoke-")
    os.makedirs(workdir, exist_ok=True)
    store = os.path.join(workdir, "store.jsonl")
    queue = os.path.join(workdir, "queue.jsonl")

    def run(job, service=None):
        """Submit ``job`` to ``service`` (default: a fresh one over the shared
        files), drain it, and return ``(service, receipt, result body)``."""
        service = service or DSEService(store_path=store, queue_path=queue)
        receipt = service.submit(job)
        check(service.status(receipt["job_id"])["state"] == "pending",
              "submitted job must start pending")
        check(service.run_pending() == 1, "one pending job must execute")
        status = service.status(receipt["job_id"])
        check(status["state"] == "done",
              f"{job['kind']} job ended {status['state']!r}")
        return service, receipt, service.result(receipt["job_id"])["result"]

    job = {"kind": "sweep", "payload": sweep_payload(latencies=(6, 8)),
           "tenant": "smoke"}
    _, submitted, cold = run(job)
    check(cold["evaluations"] == 2 and cold["cache_hits"] == 0,
          f"cold run expected 2 evaluations/0 hits, got {cold['evaluations']}"
          f"/{cold['cache_hits']}")

    # Warm resubmit — a fresh service over the same store must complete the
    # identical job from the memo tier alone.
    warm_service, resubmitted, warm = run(job)
    check(resubmitted["fingerprint"] == submitted["fingerprint"],
          "identical jobs must share a fingerprint")
    check(warm["evaluations"] == 0 and warm["cache_hits"] == 2,
          f"warm run expected 0 evaluations/2 hits, got {warm['evaluations']}"
          f"/{warm['cache_hits']}")
    counted = warm_service.stats()["cache"]
    check(counted["hits"] == 2 and counted["puts"] == 0,
          f"warm memo tier expected 2 hits/0 puts, got {counted['hits']}"
          f"/{counted['puts']}")
    check(json.dumps(warm["points"], sort_keys=True)
          == json.dumps(cold["points"], sort_keys=True),
          "warm metrics must be byte-identical to the cold run")

    _, _, rekeyed = run(job, warm_service)
    reused = warm_service.stats()["cache"]["keys_reused"]
    check(rekeyed["evaluations"] == 0 and reused == 2,
          f"resubmission to the same service expected 0 evaluations/2 keys "
          f"reused from memory, got {rekeyed['evaluations']}/{reused}")

    # Explore jobs go through the same memo tier.
    explore = {"kind": "explore", "tenant": "smoke",
               "payload": explore_payload(latencies=(6, 10))}
    run(explore)
    warm_service, _, explored = run(explore)
    hits = warm_service.stats()["cache"]["hits"]
    check(explored["evaluations"] == 0 and hits == explored["cache_hits"],
          f"warm explore expected 0 evaluations and {explored['cache_hits']} "
          f"memo hit(s), got {explored['evaluations']}/{hits}")
    print(f"serve smoke ok: cold={cold['evaluations']} evaluation(s), "
          f"warm={warm['evaluations']} (all {warm['cache_hits']} from cache), "
          f"warm explore={explored['evaluations']}"
          + (f"; artifacts in {workdir}" if args.keep else ""))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "submit": _cmd_submit,
        "run": _cmd_run,
        "status": _cmd_status,
        "result": _cmd_result,
        "stats": _cmd_stats,
        "http": _cmd_http,
        "smoke": _cmd_smoke,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
