"""Retry/timeout/backoff policy wrapping every served job.

A job submitted to the :class:`repro.serve.service.DSEService` is executed
under a :class:`RetryPolicy`: the whole job gets one wall-clock deadline
(each attempt runs under the rest of it through
:func:`repro.core.deadline.call_with_deadline`, so the work stops), errors
are retried up to ``max_attempts`` with exponentially growing, jittered
backoff (fixed constants: 0.1 s doubling to at most 30 s, up to 10 %
jitter), and whatever happens is recorded as a structured, JSON-safe
:class:`AttemptRecord` list the job's status endpoint can report verbatim.

Two deliberately asymmetric failure classes:

* **errors** (any exception out of the job body) are *retried* — transient
  resource trouble is exactly what a retry policy exists for;
* **timeouts** (:class:`~repro.errors.DeadlineExceeded`) are *terminal* —
  the deadline bounds the whole job, so by the time an attempt has timed
  out there is no budget left to retry into.

Determinism: the jittered backoff sequence is a pure function of the
attempt budget (jitter drawn from ``random.Random(0)``), and both the clock
and the sleep are injectable, so the retry unit tests replay exact
schedules with a fake clock and never actually sleep.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TypeVar

from repro.core.deadline import call_with_deadline
from repro.errors import DeadlineExceeded, ReproError
from repro.obs.metrics import counter as _obs_counter

T = TypeVar("T")

#: Attempt-level telemetry (observation only; see repro.obs).
_RETRIES = _obs_counter("serve.retry.retries")
_TIMEOUTS = _obs_counter("serve.retry.timeouts")
_FAILURES = _obs_counter("serve.retry.failures")

#: Backoff after the first failed attempt; each later one doubles, up to
#: :data:`MAX_BACKOFF_SECONDS`.
BACKOFF_SECONDS = 0.1
MAX_BACKOFF_SECONDS = 30.0
#: Each delay is stretched by a factor drawn from ``[1, 1 + JITTER_FRACTION]``.
JITTER_FRACTION = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the service tries before declaring a job failed.

    ``deadline_seconds`` is the *job's* total wall-clock budget: each
    attempt runs under the remaining fraction of it, and an attempt that
    outlives the remainder is cut off and recorded as a terminal timeout.
    ``None`` disables deadlines (attempts run unbounded).

    Backoff after a failed attempt ``i`` (0-based) is
    ``min(BACKOFF_SECONDS * 2**i, MAX_BACKOFF_SECONDS)`` stretched by a
    jitter factor in ``[1, 1 + JITTER_FRACTION]`` drawn from
    ``random.Random(0)``.
    """

    max_attempts: int = 3
    deadline_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ReproError("a retry policy needs at least one attempt")

    def backoff_sequence(self) -> List[float]:
        """The jittered delays slept after failed attempts, in order.

        Entry ``i`` is the delay between attempt ``i`` and attempt
        ``i + 1``; the list has ``max_attempts - 1`` entries (no sleep
        follows the last attempt).  Pure function of the policy.
        """
        rng = random.Random(0)
        delays = []
        for index in range(self.max_attempts - 1):
            base = min(BACKOFF_SECONDS * 2.0 ** index, MAX_BACKOFF_SECONDS)
            delays.append(base * (1.0 + JITTER_FRACTION * rng.random()))
        return delays

    def to_dict(self) -> Dict[str, object]:
        return {
            "max_attempts": self.max_attempts,
            "deadline_seconds": self.deadline_seconds,
        }


@dataclass
class AttemptRecord:
    """One attempt of one job (JSON-safe via :meth:`as_dict`)."""

    index: int
    outcome: str  # "ok" | "error" | "timeout"
    error: Optional[str] = None
    elapsed_seconds: float = 0.0
    #: Backoff slept *after* this attempt (0.0 for the last/successful one).
    backoff_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "outcome": self.outcome,
            "error": self.error,
            "elapsed_seconds": self.elapsed_seconds,
            "backoff_seconds": self.backoff_seconds,
        }


@dataclass
class RetryOutcome:
    """What :func:`run_with_retry` produced: a value or a failure record."""

    ok: bool
    value: Optional[object] = None
    attempts: List[AttemptRecord] = field(default_factory=list)
    #: Structured, JSON-safe failure description (``None`` on success):
    #: ``{"kind": "timeout"|"error", "what": ..., "error": ...,
    #: "attempts": [AttemptRecord dicts]}``.
    failure: Optional[Dict[str, object]] = None

    @property
    def timed_out(self) -> bool:
        return self.failure is not None and self.failure["kind"] == "timeout"


def _failure_record(kind: str, what: str,
                    attempts: List[AttemptRecord]) -> Dict[str, object]:
    return {
        "kind": kind,
        "what": what,
        "error": attempts[-1].error if attempts else None,
        "attempts": [attempt.as_dict() for attempt in attempts],
    }


def run_with_retry(
    fn: Callable[[], T],
    policy: RetryPolicy,
    what: str = "job",
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> RetryOutcome:
    """Run ``fn`` under ``policy`` and return a :class:`RetryOutcome`.

    Never raises for job-level failures: errors exhaust the attempt budget
    and timeouts terminate early, both returning ``ok=False`` with a
    structured failure record (the service stores it on the job and the
    status endpoint serves it).  ``clock``/``sleep`` are injectable for
    deterministic tests; the deadline is measured on ``clock``, enforced
    by :func:`~repro.core.deadline.call_with_deadline` on real wall time.
    """
    start = clock()
    delays = policy.backoff_sequence()
    attempts: List[AttemptRecord] = []
    for index in range(policy.max_attempts):
        remaining: Optional[float] = None
        if policy.deadline_seconds is not None:
            remaining = policy.deadline_seconds - (clock() - start)
        attempt_start = clock()
        try:
            value = call_with_deadline(fn, remaining, what=what)
        except DeadlineExceeded as exc:
            _TIMEOUTS.inc()
            _FAILURES.inc()
            attempts.append(AttemptRecord(
                index=index, outcome="timeout", error=str(exc),
                elapsed_seconds=clock() - attempt_start))
            return RetryOutcome(ok=False, attempts=attempts,
                                failure=_failure_record("timeout", what,
                                                        attempts))
        except Exception as exc:  # noqa: BLE001 — retry loops isolate everything
            error = f"{type(exc).__name__}: {exc}"
            last = index == policy.max_attempts - 1
            backoff = 0.0 if last else delays[index]
            attempts.append(AttemptRecord(
                index=index, outcome="error", error=error,
                elapsed_seconds=clock() - attempt_start,
                backoff_seconds=backoff))
            if last:
                _FAILURES.inc()
                return RetryOutcome(ok=False, attempts=attempts,
                                    failure=_failure_record("error", what,
                                                            attempts))
            _RETRIES.inc()
            sleep(backoff)
            continue
        attempts.append(AttemptRecord(
            index=index, outcome="ok",
            elapsed_seconds=clock() - attempt_start))
        return RetryOutcome(ok=True, value=value, attempts=attempts)
    raise AssertionError("unreachable: the loop always returns")
