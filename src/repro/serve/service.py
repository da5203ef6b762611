"""The memoizing multi-tenant DSE service.

:class:`DSEService` composes the serve layer: a persistent
:class:`~repro.serve.queue.JobQueue`, the shared
:class:`~repro.serve.cache.MemoCache` memo tier, a
:class:`~repro.serve.retry.RetryPolicy` wrapped around every job, and
workers that execute the three job kinds by *reusing* the existing
evaluation stack: submitted designs and sweeps resolve their points through
:func:`repro.explore.store.memoized_run` over the memo tier, explorations
run :class:`repro.explore.adaptive.AdaptiveExplorer` with the memo tier as
its store (which calls the same function), and the misses run through a
:class:`repro.flows.sweep.SweepSession` — so a served result is bit-for-bit
the result a direct call would have produced (asserted by the service
property tests).  A resubmitted sweep or design payload is keyed from
memory, kept for the service's lifetime and not persisted.

Endpoints are plain methods (``submit`` / ``status`` / ``result`` /
``cancel`` / ``stats``); :mod:`repro.serve.http` exposes them over stdlib
``http.server`` without adding anything to the semantics, which is why the
service tests run against fakes and never open a socket.  Every endpoint
records its latency in a ``serve.endpoint.<name>.seconds`` histogram
(:mod:`repro.obs.metrics`).

Execution: :meth:`run_pending` drains the queue in the calling thread (the
CLI one-shot and test mode); :meth:`start_workers` / :meth:`stop_workers`
run a thread pool for the server mode.  Either way each job runs under the
retry policy, whose deadline (:mod:`repro.core.deadline`) stops the job's
work at its next checkpoint and leaves nothing of it running; the job is
recorded as a structured ``timeout`` job, and the worker moves on.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Union

from repro.errors import ReproError
from repro.explore.store import EVALUATED, memoized_run
from repro.flows.dse import DSEResult
from repro.flows.sweep import SweepSession
from repro.obs.metrics import histogram as _obs_histogram
from repro.obs.trace import span as _obs_span
from repro.serve.cache import MemoCache
from repro.serve.jobs import KIND_EXPLORE, KIND_SWEEP, JobRecord, JobSpec
from repro.serve.queue import JobQueue
from repro.serve.retry import RetryPolicy, run_with_retry


class UnknownJobError(ReproError):
    """Raised by endpoints for a job id the queue has never seen."""


class JobStateError(ReproError):
    """Raised by endpoints when a job is in the wrong state (e.g. asking
    for the result of a job that is not done, cancelling a running job)."""


class DSEService:
    """The serve layer's core object (endpoints + workers + memo tier).

    Parameters
    ----------
    library:
        Resource library shared by all evaluations; defaults to
        :func:`repro.lib.tsmc90.tsmc90_library`, built lazily so queue-only
        operations (status, stats, cancel) never pay for characterisation.
    store_path:
        The JSONL file of the shared :class:`MemoCache` memo tier
        (``None``: in-memory).
    queue_path:
        The JSONL journal of the job queue (``None``: in-memory).
    retry:
        The :class:`RetryPolicy` every job runs under (its
        ``deadline_seconds`` is the per-job timeout).
    workers:
        Worker processes for the memo misses of one sweep or exploration
        job (default 1: evaluate in the thread running the job).  An
        injected ``evaluator`` always runs point by point in that thread.
    evaluator:
        Injection point for tests: ``(factory, library, point,
        margin_fraction, scheduling) -> metrics dict``.  The fakes in
        :mod:`repro.serve.fakes` implement it; the default runs both real
        flows through a :class:`~repro.flows.sweep.SweepSession`.
    compact_after:
        The memo tier's compaction threshold (see :class:`MemoCache`).
    """

    def __init__(
        self,
        library=None,
        store_path: Optional[str] = None,
        queue_path: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        workers: int = 1,
        evaluator: Optional[Callable[..., Dict[str, object]]] = None,
        compact_after: Optional[int] = 256,
    ):
        if workers < 1:
            raise ReproError(f"workers must be at least 1, got {workers}")
        self._library = library
        self.cache = MemoCache(path=store_path, compact_after=compact_after)
        self.queue = JobQueue(path=queue_path)
        self.retry = retry if retry is not None else RetryPolicy()
        self.workers = workers
        self._evaluator = evaluator
        self._workers: List[threading.Thread] = []
        self._stop = threading.Event()

    @property
    def library(self):
        if self._library is None:
            from repro.lib.tsmc90 import tsmc90_library

            self._library = tsmc90_library()
        return self._library

    # -- endpoints ---------------------------------------------------------------

    def submit(self, request: Union[JobSpec, Mapping[str, object]],
               ) -> Dict[str, object]:
        """Validate and enqueue one job; returns its id and fingerprint."""
        with _Timed("submit"):
            spec = request if isinstance(request, JobSpec) \
                else JobSpec.from_dict(request)
            record = self.queue.submit(spec)
            return {"job_id": record.job_id, "state": record.state,
                    "fingerprint": spec.fingerprint()}

    def status(self, job_id: str) -> Dict[str, object]:
        """The job's lifecycle view (state, attempts, structured failure)."""
        with _Timed("status"):
            return self._require(job_id).status()

    def result(self, job_id: str) -> Dict[str, object]:
        """The result body of a *done* job (other states raise)."""
        with _Timed("result"):
            record = self._require(job_id)
            if record.state != "done":
                raise JobStateError(
                    f"job {job_id} is {record.state}; results exist only "
                    "for done jobs" + (f" (failure: {record.failure})"
                                       if record.failure else ""))
            return {"job_id": record.job_id, "result": record.result}

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Cancel a pending job; running/terminal jobs raise."""
        with _Timed("cancel"):
            self._require(job_id)
            try:
                record = self.queue.cancel(job_id)
            except ReproError as exc:
                raise JobStateError(str(exc))
            return {"job_id": record.job_id, "state": record.state}

    def stats(self) -> Dict[str, object]:
        """Queue tallies plus the memo tier's hit/miss/compaction stats."""
        with _Timed("stats"):
            return {
                "jobs": self.queue.counts(),
                "cache": self.cache.stats(),
                "retry": self.retry.to_dict(),
                "workers": len(self._workers),
            }

    def _require(self, job_id: str) -> JobRecord:
        record = self.queue.get(job_id)
        if record is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return record

    # -- execution ---------------------------------------------------------------

    def run_pending(self, max_jobs: Optional[int] = None) -> int:
        """Execute pending jobs in the calling thread; returns the count."""
        executed = 0
        while max_jobs is None or executed < max_jobs:
            record = self.queue.claim(timeout=0.0)
            if record is None:
                break
            self._execute(record)
            executed += 1
        return executed

    def start_workers(self, count: int = 1) -> None:
        """Start ``count`` daemon worker threads draining the queue."""
        self._stop.clear()
        for index in range(count):
            thread = threading.Thread(target=self._worker_loop, daemon=True,
                                      name=f"serve-worker-{index}")
            thread.start()
            self._workers.append(thread)

    def stop_workers(self) -> None:
        """Signal the workers to stop and join each for up to 5 s."""
        self._stop.set()
        for thread in self._workers:
            thread.join(5.0)
        self._workers = []

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            record = self.queue.claim(timeout=0.1)
            if record is not None:
                self._execute(record)

    def _execute(self, record: JobRecord) -> JobRecord:
        """Run one claimed job under the retry policy and finish it."""
        with _obs_span("serve.job", kind=record.spec.kind,
                       job=record.job_id):
            outcome = run_with_retry(
                lambda: self._run_job(record.spec), self.retry,
                what=f"{record.spec.kind} job {record.job_id}")
        attempts = [attempt.as_dict() for attempt in outcome.attempts]
        if outcome.ok:
            return self.queue.finish(record.job_id, "done",
                                     result=outcome.value, attempts=attempts)
        state = "timeout" if outcome.timed_out else "failed"
        return self.queue.finish(record.job_id, state,
                                 failure=outcome.failure, attempts=attempts)

    # -- job bodies --------------------------------------------------------------

    def _run_job(self, spec: JobSpec) -> Dict[str, object]:
        """One job body: sweeps and submitted designs resolve their points
        memo-first through :func:`memoized_run`; explorations run the
        adaptive explorer over the same memo."""
        job = spec.parse_payload()
        if spec.kind == KIND_EXPLORE:
            return self._run_explore(spec, job)
        body: Dict[str, object] = {"kind": spec.kind, "tenant": spec.tenant}
        if spec.kind == KIND_SWEEP:
            body["workload"] = tag = job.workload
            points, scheduling = job.points(), job.scheduling
        else:  # a submitted design: the scenario's one point
            tag, points = "scenario", [job.point(name=job.name)]
            scheduling = "block" if job.pipeline_ii is None else "pipeline"
        session = SweepSession(job.factory(), self.library,
                               margin_fraction=job.margin_fraction,
                               scheduling=scheduling)
        fingerprint = spec.fingerprint()
        outcomes, failures = memoized_run(
            session, points, self.cache, workload=f"serve:{spec.tenant}:{tag}",
            workers=self.workers, evaluator=self._evaluator,
            keys=self.cache.remembered_keys(fingerprint))
        keys = [outcome.key for outcome in outcomes]
        if None not in keys:  # no factory raised
            self.cache.remember_keys(fingerprint, keys)
        # The other points are recorded already: a retry evaluates only the
        # failures.
        DSEResult(failures=failures).raise_on_failures()
        evaluations = sum(outcome.source == EVALUATED for outcome in outcomes)
        return {**body, "points": [outcome.metrics for outcome in outcomes],
                "cache_hits": len(points) - evaluations,
                "evaluations": evaluations}

    def _run_explore(self, spec: JobSpec, job) -> Dict[str, object]:
        from repro.explore.adaptive import AdaptiveExplorer, RefinementPolicy

        explorer = AdaptiveExplorer(
            job.factory(), self.library, job.latencies,
            clock_period=job.clock_period,
            margin_fraction=job.margin_fraction,
            objectives=job.objectives,
            policy=RefinementPolicy(coarse_points=job.coarse_points),
            store=self.cache,
            workload=f"serve:{spec.tenant}:{job.workload}",
            evaluator=self._evaluator,
            workers=self.workers,
        )
        result = explorer.explore()
        return {
            "kind": KIND_EXPLORE,
            "tenant": spec.tenant,
            "workload": job.workload,
            "mode": result.mode,
            "evaluated": sorted(result.curve),
            "waves": result.waves,
            "front": [{"label": point.label,
                       "objectives": {objective: point.raw_value(objective)
                                      for objective in point.objectives}}
                      for point in result.front],
            "cache_hits": result.restored + result.deduplicated,
            "evaluations": result.engine_evaluations,
        }


class _Timed:
    """Context manager feeding the per-endpoint latency histogram."""

    __slots__ = ("endpoint", "start")

    def __init__(self, endpoint: str):
        self.endpoint = endpoint
        self.start = 0.0

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        _obs_histogram(f"serve.endpoint.{self.endpoint}.seconds").observe(
            time.perf_counter() - self.start)
        return False
