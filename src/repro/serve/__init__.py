"""repro.serve — the memoizing multi-tenant DSE service.

The serve layer turns the repo's batch evaluation stack into a long-lived
service: tenants submit JSON-safe jobs (``submit-design`` scenarios,
``sweep`` grids, ``explore`` requests — a
:class:`repro.verify.scenarios.ScenarioSpec`, a
:class:`~repro.serve.jobs.SweepJob` or an
:class:`~repro.serve.jobs.ExploreJob` dict), a persistent FIFO queue
journals each submit, finish and cancel (a reload requeues a job that was
running, so claims are not journaled), and workers execute
each job under a retry/deadline policy with every evaluation resolved
*memo-first* by :func:`repro.explore.store.memoized_run` against one shared
fingerprint-keyed :class:`MemoCache` (a counting, self-compacting
:class:`repro.explore.store.ResultStore`) — sweeps, submitted designs and
explorations alike.  Re-submitting an already-evaluated design therefore
completes with zero new flow evaluations, whoever evaluated it first.

Modules
-------

:mod:`repro.serve.jobs`
    The job model: :class:`JobSpec` requests and :class:`JobRecord` state.
:mod:`repro.serve.queue`
    :class:`JobQueue` — persistent FIFO with crash recovery.
:mod:`repro.serve.retry`
    :class:`RetryPolicy` / :func:`run_with_retry` — bounded retries,
    deterministic jittered backoff, terminal structured timeouts.
:mod:`repro.serve.cache`
    :class:`MemoCache` — the shared memo tier: a :class:`ResultStore`
    subclass counting its traffic, with stale-line-triggered byte-stable
    compaction.
:mod:`repro.serve.service`
    :class:`DSEService` — endpoints + workers, the layer's core.
:mod:`repro.serve.http`
    ``http.server`` front end (:func:`route_request` is the pure protocol).
:mod:`repro.serve.fakes`
    Canned evaluators and the fake clock the service tests inject.
:mod:`repro.serve.cli`
    ``repro serve`` — submit/run/status/result/stats/http/smoke.
"""

from repro.serve.cache import MemoCache
from repro.serve.jobs import JobRecord, JobSpec
from repro.serve.queue import JobQueue
from repro.serve.retry import RetryPolicy, RetryOutcome, run_with_retry
from repro.serve.service import DSEService, JobStateError, UnknownJobError

__all__ = [
    "DSEService",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "JobStateError",
    "MemoCache",
    "RetryOutcome",
    "RetryPolicy",
    "UnknownJobError",
    "run_with_retry",
]
