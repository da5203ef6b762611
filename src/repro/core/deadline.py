"""Wall-clock deadline enforcement for otherwise unbounded calls.

Nothing in the flow stack had a timeout before this module existed: one
hung oracle stalled a nightly fuzz shard past its ``--budget-seconds``,
and one hung evaluation would have stalled a serve worker forever.
:func:`call_with_deadline` is the shared primitive both layers use — the
fuzzer's per-oracle budget (:mod:`repro.verify.runner`) and the serve
layer's per-job retry policy (:mod:`repro.serve.retry`).

Python cannot forcibly kill a thread, so the mechanics are *bounded
waiting*, not preemption: the call runs in a daemon worker thread and the
caller waits at most ``seconds`` for it.  On expiry the caller gets a
:class:`~repro.errors.DeadlineExceeded` and moves on; the abandoned thread
keeps running to completion in the background (its result is discarded) and
dies with the process.  That is the right trade-off for this codebase:
evaluations and oracles are pure compute without external side effects, so
an abandoned run can waste a core but never corrupt state.

Deterministic by construction: a call that finishes inside its deadline
returns exactly what the inline call would have returned (same value, same
raised exception) — the deadline only changes what happens to calls that
would not have returned at all.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, TypeVar

from repro.errors import DeadlineExceeded
from repro.obs.metrics import counter as _obs_counter

T = TypeVar("T")

#: Calls abandoned at their deadline (the thread keeps running, detached).
_EXPIRED = _obs_counter("deadline.expired")


def call_with_deadline(fn: Callable[[], T],
                       seconds: Optional[float],
                       what: str = "call") -> T:
    """Run ``fn()`` with at most ``seconds`` of wall-clock patience.

    ``seconds=None`` runs ``fn`` inline (no thread, no overhead) — the
    "deadlines off" configuration.  Otherwise ``fn`` runs in a daemon
    thread; if it finishes in time its return value (or its exception,
    re-raised unchanged) is the caller's, and if it does not, the caller
    raises :class:`~repro.errors.DeadlineExceeded` naming ``what`` and
    abandons the thread (see the module docstring for why abandonment,
    not cancellation).

    A non-positive ``seconds`` raises immediately without starting the
    call — callers deriving deadlines from a shrinking budget (`budget -
    elapsed`) need exhausted budgets to fail fast, not to sneak one more
    evaluation in.
    """
    if seconds is None:
        return fn()
    if seconds <= 0:
        _EXPIRED.inc()
        raise DeadlineExceeded(
            f"{what}: deadline already exhausted before the call started")

    outcome: dict = {}
    done = threading.Event()

    def target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 — re-raised in the caller
            outcome["error"] = exc
        finally:
            done.set()

    thread = threading.Thread(target=target, daemon=True,
                              name=f"deadline:{what}")
    thread.start()
    if not done.wait(seconds):
        _EXPIRED.inc()
        raise DeadlineExceeded(
            f"{what}: exceeded its {seconds:g}s deadline (abandoned; the "
            f"worker thread is detached and discarded)")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]  # type: ignore[return-value]
