"""Wall-clock deadlines that stop the work they bound.

A deadline is a scope, not a thread: :func:`call_with_deadline` runs
``fn()`` in the caller's own thread while a context variable holds the
earliest expiry of the calls enclosing it, and :func:`check_deadline`
raises :class:`~repro.errors.DeadlineExceeded` once that expiry has passed.
The long loops call it once per pass: the relaxation loop of both flows
(block and modulo) and the points of a sweep (``SweepSession.evaluate``,
each injected evaluator of ``memoized_run``; a process pool hands each task
the rest of the deadline).  Every other loop is bounded, so at paper scale
a cutoff lands within about 0.2 s and nothing of the work runs after it.
Only the code that set a deadline stops the cutoff: the fuzzer's oracle
guard (:mod:`repro.verify.runner`) and the serve layer's retry policy
(:mod:`repro.serve.retry`); a sweep it passes keeps its finished points.

The trade-off: a body that never reaches :func:`check_deadline` is not cut
off; it runs to its end (CONTRIBUTING, "Deadlines are checkpoints").  A
call that ends in time returns what the plain call would have returned.
Each thread starts outside any deadline.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Callable, Optional, Tuple, TypeVar

from repro.errors import DeadlineExceeded
from repro.obs.metrics import counter as _obs_counter

T = TypeVar("T")

#: Calls cut off by their deadline, at a checkpoint or before they started.
_EXPIRED = _obs_counter("deadline.expired")

#: ``(expiry on time.monotonic(), message)`` of the earliest deadline
#: enclosing the running code.
_SCOPE: ContextVar[Optional[Tuple[float, str]]] = ContextVar("deadline",
                                                             default=None)


def deadline_expired() -> bool:
    """Whether the enclosing deadline has passed (``False`` outside any):
    after a nested call's cutoff, whether it came from the enclosing scope."""
    scope = _SCOPE.get()
    return scope is not None and time.monotonic() >= scope[0]


def check_deadline() -> None:
    """Raise :class:`~repro.errors.DeadlineExceeded` once the enclosing
    deadline has passed; outside any deadline, do nothing."""
    if deadline_expired():
        _EXPIRED.inc()
        raise DeadlineExceeded(_SCOPE.get()[1])


def wall_clock_deadline() -> Optional[float]:
    """The enclosing deadline on ``time.time()``, for another process."""
    scope = _SCOPE.get()
    return None if scope is None else scope[0] - time.monotonic() + time.time()


def call_with_deadline(fn: Callable[[], T],
                       seconds: Optional[float],
                       what: str = "call") -> T:
    """Run ``fn()`` in this thread, cut off ``seconds`` from now.

    An expired enclosing deadline raises before ``fn`` starts, and so does
    a non-positive ``seconds``: a caller deriving a deadline from a
    shrinking budget must fail fast, not sneak one more evaluation in.
    Otherwise ``fn`` runs under the earlier of the enclosing expiry and
    ``now + seconds``; ``seconds=None`` adds no deadline of its own.
    """
    check_deadline()
    if seconds is None:
        return fn()
    if seconds <= 0:
        _EXPIRED.inc()
        raise DeadlineExceeded(
            f"{what}: deadline already exhausted before the call started")
    expiry = time.monotonic() + seconds
    enclosing = _SCOPE.get()
    if enclosing is not None and enclosing[0] <= expiry:
        return fn()
    token = _SCOPE.set((expiry, f"{what}: exceeded its {seconds:g}s deadline"))
    try:
        return fn()
    finally:
        _SCOPE.reset(token)
