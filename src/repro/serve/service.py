"""The memoizing multi-tenant DSE service.

:class:`DSEService` composes the serve layer: a persistent
:class:`~repro.serve.queue.JobQueue`, the shared
:class:`~repro.serve.cache.MemoCache` memo tier, a
:class:`~repro.serve.retry.RetryPolicy` wrapped around every job, and
workers that execute the three job kinds by *reusing* the existing
evaluation stack — :func:`repro.flows.dse.evaluate_point` for submitted
designs, :meth:`repro.flows.sweep.SweepSession.run` for sweeps and
:class:`repro.explore.adaptive.AdaptiveExplorer` for explorations — so a
served result is bit-for-bit the result a direct call would have produced
(asserted by the service property tests).

Endpoints are plain methods (``submit`` / ``status`` / ``result`` /
``cancel`` / ``stats``); :mod:`repro.serve.http` exposes them over stdlib
``http.server`` without adding anything to the semantics, which is why the
service tests run against fakes and never open a socket.  Every endpoint
records its latency in a ``serve.endpoint.<name>.seconds`` histogram
(:mod:`repro.obs.metrics`).

Execution: :meth:`run_pending` drains the queue in the calling thread (the
CLI one-shot and test mode); :meth:`start_workers` / :meth:`stop_workers`
run a thread pool for the server mode.  Either way each job runs under the
retry policy, whose deadline is enforced with
:func:`repro.core.deadline.call_with_deadline` — a hanging evaluation is
abandoned at the deadline and recorded as a structured ``timeout`` job,
and the worker moves on to the next job instead of stalling.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Union

from repro.errors import ReproError
from repro.obs.metrics import histogram as _obs_histogram
from repro.obs.trace import span as _obs_span
from repro.serve.cache import MemoCache
from repro.serve.jobs import (
    KIND_EXPLORE,
    KIND_SUBMIT_DESIGN,
    KIND_SWEEP,
    JobRecord,
    JobSpec,
)
from repro.serve.queue import JobQueue
from repro.serve.retry import RetryPolicy, run_with_retry


class UnknownJobError(ReproError):
    """Raised by endpoints for a job id the queue has never seen."""


class JobStateError(ReproError):
    """Raised by endpoints when a job is in the wrong state (e.g. asking
    for the result of a job that is not done, cancelling a running job)."""


def _default_evaluator(factory, library, point, margin_fraction: float,
                       scheduling: str) -> Dict[str, object]:
    """Evaluate one point through both real flows (the production path)."""
    from repro.flows.dse import evaluate_point

    return evaluate_point(factory, library, point,
                          margin_fraction=margin_fraction,
                          scheduling=scheduling).metrics()


class DSEService:
    """The serve layer's core object (endpoints + workers + memo tier).

    Parameters
    ----------
    library:
        Resource library shared by all evaluations; defaults to
        :func:`repro.lib.tsmc90.tsmc90_library`, built lazily so queue-only
        operations (status, stats, cancel) never pay for characterisation.
    cache / store_path:
        The shared memo tier: pass a :class:`MemoCache` to adopt one, or a
        ``store_path`` to create one over a persistent store (``None``:
        in-memory).
    queue / queue_path:
        The job queue, same adopt-or-create pattern.
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
        flows.
    """

    def __init__(
        self,
        library=None,
        cache: Optional[MemoCache] = None,
        store_path: Optional[str] = None,
        queue: Optional[JobQueue] = None,
        queue_path: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        workers: int = 1,
        evaluator: Optional[Callable[..., Dict[str, object]]] = None,
        compact_after: Optional[int] = 256,
    ):
        if workers < 1:
            raise ReproError(f"workers must be at least 1, got {workers}")
        self._library = library
        self.cache = cache if cache is not None \
            else MemoCache(path=store_path, compact_after=compact_after)
        self.queue = queue if queue is not None else JobQueue(path=queue_path)
        self.retry = retry if retry is not None else RetryPolicy()
        self.workers = workers
        self._evaluator = evaluator if evaluator is not None \
            else _default_evaluator
        self._custom_evaluator = evaluator is not None
        self._workers: List[threading.Thread] = []
        self._stop = threading.Event()

    @property
    def library(self):
        if self._library is None:
            from repro.lib.tsmc90 import tsmc90_library

            self._library = tsmc90_library()
        return self._library

    # -- endpoints ---------------------------------------------------------------

    def _timed(self, endpoint: str):
        return _Timed(endpoint)

    def submit(self, request: Union[JobSpec, Mapping[str, object]],
               ) -> Dict[str, object]:
        """Validate and enqueue one job; returns its id and fingerprint."""
        with self._timed("submit"):
            spec = request if isinstance(request, JobSpec) \
                else JobSpec.from_dict(request)
            record = self.queue.submit(spec)
            return {"job_id": record.job_id, "state": record.state,
                    "fingerprint": spec.fingerprint()}

    def status(self, job_id: str) -> Dict[str, object]:
        """The job's lifecycle view (state, attempts, structured failure)."""
        with self._timed("status"):
            return self._require(job_id).status()

    def result(self, job_id: str) -> Dict[str, object]:
        """The result body of a *done* job (other states raise)."""
        with self._timed("result"):
            record = self._require(job_id)
            if record.state != "done":
                raise JobStateError(
                    f"job {job_id} is {record.state}; results exist only "
                    "for done jobs" + (f" (failure: {record.failure})"
                                       if record.failure else ""))
            return {"job_id": record.job_id, "result": record.result}

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Cancel a pending job; running/terminal jobs raise."""
        with self._timed("cancel"):
            record = self.queue.get(job_id)
            if record is None:
                raise UnknownJobError(f"unknown job {job_id!r}")
            try:
                record = self.queue.cancel(job_id)
            except ReproError as exc:
                raise JobStateError(str(exc))
            return {"job_id": record.job_id, "state": record.state}

    def stats(self) -> Dict[str, object]:
        """Queue tallies plus the memo tier's hit/miss/compaction stats."""
        with self._timed("stats"):
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

    def stop_workers(self, timeout: float = 5.0) -> None:
        """Signal the workers to stop and join them."""
        self._stop.set()
        for thread in self._workers:
            thread.join(timeout)
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
        payload = spec.parse_payload()
        if spec.kind == KIND_SUBMIT_DESIGN:
            return self._run_submit_design(spec, payload)
        if spec.kind == KIND_SWEEP:
            return self._run_sweep(spec, payload)
        return self._run_explore(spec, payload)

    def _evaluate(self, factory, point, margin_fraction: float,
                  scheduling: str, workload: str) -> Dict[str, object]:
        """Memo-first evaluation of one point: ``{"metrics", "hit"}``."""
        key = self.cache.key(factory(point), point, margin_fraction,
                             scheduling=scheduling)
        metrics = self.cache.lookup(key)
        if metrics is not None:
            return {"metrics": metrics, "hit": True}
        metrics = self._evaluator(factory, self.library, point,
                                  margin_fraction, scheduling)
        self.cache.record(key, metrics, workload=workload,
                          point=metrics.get("point")
                          if isinstance(metrics.get("point"), dict) else None)
        return {"metrics": metrics, "hit": False}

    def _run_submit_design(self, spec: JobSpec, scenario,
                           ) -> Dict[str, object]:
        point = scenario.point(name=scenario.name)
        scheduling = "pipeline" if scenario.pipeline_ii is not None \
            else "block"
        outcome = self._evaluate(
            scenario.factory(), point, scenario.margin_fraction, scheduling,
            workload=f"serve:{spec.tenant}:scenario")
        return {
            "kind": KIND_SUBMIT_DESIGN,
            "tenant": spec.tenant,
            "points": [outcome["metrics"]],
            "cache_hits": 1 if outcome["hit"] else 0,
            "evaluations": 0 if outcome["hit"] else 1,
        }

    def _run_sweep(self, spec: JobSpec, job) -> Dict[str, object]:
        """Memo-first sweep: look every point up, evaluate the misses, record.

        The misses run through one :meth:`SweepSession.run` over
        ``workers`` processes, or point by point through an injected
        evaluator; points sharing a memo key are evaluated once.  When some
        points fail, the others are recorded before the job raises, so a
        retry evaluates only the failures.
        """
        from repro.flows.sweep import SweepSession

        factory = job.factory()
        points = job.points()
        workload = f"serve:{spec.tenant}:{job.workload}"
        keys = [self.cache.key(factory(point), point, job.margin_fraction,
                               scheduling=job.scheduling)
                for point in points]
        found = {}   # memo key -> metrics
        misses = {}  # memo key -> the first point that needs it
        for point, key in zip(points, keys):
            if key in found or key in misses:
                continue
            metrics = self.cache.lookup(key)
            if metrics is None:
                misses[key] = point
            else:
                found[key] = metrics

        def record(key, metrics):
            point = metrics.get("point")
            self.cache.record(key, metrics, workload=workload,
                              point=point if isinstance(point, dict) else None)
            found[key] = metrics

        if self._custom_evaluator:
            for key, point in misses.items():
                record(key, self._evaluator(factory, self.library, point,
                                            job.margin_fraction,
                                            job.scheduling))
        elif misses:
            session = SweepSession(factory, self.library,
                                   margin_fraction=job.margin_fraction,
                                   scheduling=job.scheduling)
            result = session.run(list(misses.values()), workers=self.workers)
            evaluated = {entry.point: entry.metrics()
                         for entry in result.entries}
            for key, point in misses.items():
                if point in evaluated:
                    record(key, evaluated[point])
            result.raise_on_failures()
        return {
            "kind": KIND_SWEEP,
            "tenant": spec.tenant,
            "workload": job.workload,
            "points": [found[key] for key in keys],
            "cache_hits": len(points) - len(misses),
            "evaluations": len(misses),
        }

    def _run_explore(self, spec: JobSpec, job) -> Dict[str, object]:
        from repro.explore.adaptive import AdaptiveExplorer, RefinementPolicy

        factory = job.factory()
        evaluate_batch = None
        if self._custom_evaluator:
            def evaluate_batch(batch):
                return [self._evaluator(factory, self.library, point,
                                        job.margin_fraction, "block")
                        for point in batch]
        explorer = AdaptiveExplorer(
            factory, self.library, job.latencies,
            clock_period=job.clock_period,
            margin_fraction=job.margin_fraction,
            objectives=job.objectives,
            policy=RefinementPolicy(coarse_points=job.coarse_points),
            store=self.cache.store,
            workload=f"serve:{spec.tenant}:{job.workload}",
            evaluate_batch=evaluate_batch,
            workers=self.workers,
        )
        result = explorer.explore()
        return {
            "kind": KIND_EXPLORE,
            "tenant": spec.tenant,
            "workload": job.workload,
            "mode": result.mode,
            "axis": result.axis,
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
