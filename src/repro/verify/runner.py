"""The differential fuzzing loop: scenarios × oracles under a budget.

:func:`run_fuzz` is the engine behind ``repro verify run``: it draws
scenarios from the deterministic stream of
:func:`repro.verify.scenarios.scenario_stream`, schedules the selected
oracles round-robin over the iterations (iteration ``i`` runs oracle
``i % len(oracles)``), records every violation in the corpus — shrunk
first, so regressions replay at minimal size — and stops on whichever of
the iteration and wall-clock budgets is hit first.

Determinism contract (asserted by the test suite and relied on by CI): for
a fixed ``seed``, oracle selection and iteration count, the sequence of
scenario fingerprints — and therefore :attr:`FuzzReport.scenario_digest` —
is identical across runs, processes and platforms.  Wall-clock budgets
cut the *number* of iterations, never reorder them.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.deadline import call_with_deadline, deadline_expired
from repro.errors import DeadlineExceeded
from repro.lib.library import Library
from repro.obs.metrics import counter as _obs_counter, histogram as _obs_histogram
from repro.obs.trace import span as _obs_span
from repro.verify.corpus import Corpus
from repro.verify.oracles import (
    ORACLES,
    Oracle,
    OracleOutcome,
    default_library,
    select_oracles,
)
from repro.verify.scenarios import ScenarioProfile, ScenarioSpec, scenario_stream
from repro.verify.shrink import ShrinkResult, shrink_spec

#: Oracle telemetry (observation only; see repro.obs).  Pass/fail/crash are
#: process-wide counters; per-oracle wall time lands in an
#: ``oracle.<name>.seconds`` histogram created on first use.
_ORACLE_PASS = _obs_counter("oracle.pass")
_ORACLE_FAIL = _obs_counter("oracle.fail")
_ORACLE_CRASH = _obs_counter("oracle.crash")
_ORACLE_TIMEOUT = _obs_counter("oracle.timeout")


def run_oracle_guarded(oracle: Oracle, spec: ScenarioSpec,
                       library: Library,
                       deadline_seconds: Optional[float] = None,
                       ) -> OracleOutcome:
    """Run an oracle; an escaped exception becomes a violation, not an abort.

    Oracles themselves arbitrate *expected* failures (paired
    :class:`~repro.errors.ReproError`\\ s count as agreement), so anything
    that still escapes — an ``IndexError`` deep in an engine under test, say
    — is exactly the crash-bug class the fuzzer exists to find.  It must be
    recorded and shrunk like any other violation instead of killing the run
    and losing the seed.

    ``deadline_seconds`` bounds the oracle's wall clock within any enclosing
    deadline (``run_fuzz``'s budget; :mod:`repro.core.deadline`).  A cutoff
    is recorded as a structured ``timed_out`` outcome; the run moves on.
    Only a cutoff by ``deadline_seconds`` counts as ``oracle.timeout`` and
    lands in the ``oracle.<name>.seconds`` histogram: once the enclosing
    deadline has expired the check is unchecked (``run_fuzz`` ends the run
    on it), so it is neither.
    """
    start = time.perf_counter()
    cut_short = False
    with _obs_span("oracle.run", oracle=oracle.name) as obs:
        try:
            outcome = call_with_deadline(
                lambda: oracle.run(spec, library), deadline_seconds,
                what=f"oracle {oracle.name!r}")
            if outcome.ok:
                _ORACLE_PASS.inc()
            else:
                _ORACLE_FAIL.inc()
                obs.set(ok=False)
        except DeadlineExceeded as exc:
            cut_short = deadline_expired()
            if not cut_short:
                _ORACLE_TIMEOUT.inc()
            obs.set(ok=False, timeout=True)
            outcome = OracleOutcome(
                oracle=oracle.name, ok=False, timed_out=True,
                details=f"timeout: {exc}")
        except Exception as exc:  # noqa: BLE001 — crash capture is the point
            _ORACLE_CRASH.inc()
            obs.set(ok=False, crash=type(exc).__name__)
            outcome = OracleOutcome(
                oracle=oracle.name, ok=False,
                details=f"crash: {type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc(limit=8)}")
    if not cut_short:
        _obs_histogram(f"oracle.{oracle.name}.seconds").observe(
            time.perf_counter() - start)
    return outcome


@dataclass
class FuzzFailure:
    """One oracle violation, with its (optionally shrunk) reproducer."""

    iteration: int
    oracle: str
    details: str
    spec: ScenarioSpec
    fingerprint: str
    shrunk: Optional[ShrinkResult] = None
    #: The oracle hit its wall-clock deadline (a structured timeout, never
    #: shrunk — every shrink probe would hang the same way).
    timed_out: bool = False

    @property
    def reproducer(self) -> ScenarioSpec:
        return self.shrunk.spec if self.shrunk is not None else self.spec


@dataclass
class FuzzReport:
    """Summary of one fuzzing run."""

    seed: int
    iterations: int = 0
    wall_time_seconds: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)
    checked_per_oracle: Dict[str, int] = field(default_factory=dict)
    fingerprints: List[str] = field(default_factory=list)
    budget_exhausted: bool = False
    #: The oracle whose check the budget cut short (unchecked, not counted).
    cut_short: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def timeouts(self) -> List[FuzzFailure]:
        """The failures that are deadline cut-offs, not disagreements."""
        return [failure for failure in self.failures if failure.timed_out]

    @property
    def scenario_digest(self) -> str:
        """A stable digest of every checked scenario's fingerprint.

        Two runs with the same seed/oracle/iteration configuration must
        print the same digest — the cheap way for CI to assert end-to-end
        determinism of the whole generate-build-fingerprint pipeline.
        """
        payload = "\n".join(self.fingerprints).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def run_fuzz(
    seed: int = 0,
    iterations: Optional[int] = 200,
    budget_seconds: Optional[float] = None,
    oracle_names: Optional[List[str]] = None,
    corpus: Optional[Corpus] = None,
    shrink: bool = True,
    shrink_evaluations: int = 200,
    profile: Optional[ScenarioProfile] = None,
    oracle_deadline_seconds: Optional[float] = None,
) -> FuzzReport:
    """Run the differential fuzzing loop on the default library and return
    its report.

    ``iterations=None`` runs until ``budget_seconds`` expires (one of the
    two budgets must be set).  Violations are appended to ``corpus`` (when
    given) as a ``failure`` record plus, when ``shrink`` is on, a ``shrunk``
    record keyed by the minimized design's fingerprint.

    Deadlines: a positive ``budget_seconds`` is one deadline around the
    loop, and each oracle call and shrink probe runs under
    ``oracle_deadline_seconds`` within it, so no check starts after the
    budget.  A check cut off by its own deadline is a ``timed_out``
    failure, never shrunk.  A check the budget cut off is unchecked, since
    nothing disagreed: it ends the run as :attr:`FuzzReport.cut_short`.
    """
    if iterations is None and budget_seconds is None:
        raise ValueError("set iterations and/or budget_seconds")
    library = default_library()
    oracles = select_oracles(oracle_names)
    report = FuzzReport(seed=seed)
    start = time.perf_counter()

    def fuzz() -> None:
        for iteration, spec in scenario_stream(seed, iterations,
                                               profile=profile):
            if budget_seconds is not None \
                    and time.perf_counter() - start >= budget_seconds:
                report.budget_exhausted = True
                return
            oracle = oracles[iteration % len(oracles)]
            fingerprint = spec.fingerprint()
            outcome = run_oracle_guarded(
                oracle, spec, library,
                deadline_seconds=oracle_deadline_seconds)
            if outcome.timed_out and deadline_expired():
                report.cut_short = oracle.name
                report.budget_exhausted = True
                return
            report.fingerprints.append(fingerprint)
            report.iterations += 1
            report.checked_per_oracle[oracle.name] = \
                report.checked_per_oracle.get(oracle.name, 0) + 1
            if outcome.ok:
                continue

            failure = FuzzFailure(iteration=iteration, oracle=oracle.name,
                                  details=outcome.details, spec=spec,
                                  fingerprint=fingerprint,
                                  timed_out=outcome.timed_out)
            if corpus is not None:
                corpus.add(spec, oracle.name, outcome.details,
                           kind="failure", fingerprint=fingerprint)
            if shrink and not outcome.timed_out:
                failure.shrunk = shrink_failure(
                    failure, oracle, library=library,
                    max_evaluations=shrink_evaluations,
                    deadline_seconds=oracle_deadline_seconds)
                if corpus is not None and failure.shrunk.accepted_steps:
                    shrunk_spec = failure.shrunk.spec
                    # Store the shrunk spec's *own* violation message (the
                    # original details may name ops the minimized design
                    # no longer contains), unless the budget cut it off.
                    shrunk_outcome = run_oracle_guarded(oracle, shrunk_spec,
                                                        library)
                    details = outcome.details if shrunk_outcome.timed_out \
                        else shrunk_outcome.details or outcome.details
                    corpus.add(shrunk_spec, oracle.name, details,
                               kind="shrunk", shrunk_from=fingerprint)
            report.failures.append(failure)

    budget = budget_seconds if budget_seconds and budget_seconds > 0 else None
    call_with_deadline(fuzz, budget, what="the fuzz budget")
    report.wall_time_seconds = time.perf_counter() - start
    return report


def shrink_failure(failure: FuzzFailure, oracle: Oracle,
                   library: Optional[Library] = None,
                   max_evaluations: int = 200,
                   deadline_seconds: Optional[float] = None) -> ShrinkResult:
    """Minimize a failure's spec while the same oracle keeps failing.

    ``deadline_seconds`` bounds each shrink probe the same way the fuzz
    loop bounds the original check.  A probe cut off at its deadline gives
    *no* signal — the candidate is conservatively treated as not-failing
    (the parent spec is kept) rather than letting an unchecked candidate
    masquerade as a confirmed reproducer.
    """
    library = library if library is not None else default_library()

    def still_fails(candidate: ScenarioSpec) -> bool:
        outcome = run_oracle_guarded(oracle, candidate, library,
                                     deadline_seconds=deadline_seconds)
        return not outcome.ok and not outcome.timed_out

    return shrink_spec(failure.spec, still_fails,
                       max_evaluations=max_evaluations)


def replay_corpus(
    corpus: Corpus,
    oracle_names: Optional[List[str]] = None,
) -> List[OracleOutcome]:
    """Re-run every stored corpus record against its recorded oracle, on
    the default library.

    Returns one outcome per replayed record (skipping records whose oracle
    is not in ``oracle_names`` when a filter is given).  A record whose
    scenario *no longer* fails is a fixed regression — ``repro verify
    replay`` reports it as such instead of failing the run.

    A record referencing an oracle that is no longer registered (renamed or
    removed since the corpus was written) yields a failing outcome with a
    clear ``unknown oracle`` message: the regression it memorialized is no
    longer being checked, and silently skipping it would turn the corpus
    replay gate into a false pass.
    """
    library = default_library()
    allowed = {oracle.name for oracle in select_oracles(oracle_names)}
    outcomes: List[OracleOutcome] = []
    for record in corpus.records():
        name = record["oracle"]
        if oracle_names is not None and name not in allowed:
            continue
        oracle = ORACLES.get(name)
        if oracle is None:
            outcomes.append(OracleOutcome(
                oracle=name, ok=False,
                details=f"unknown oracle {name!r}: not registered (renamed "
                        f"or removed?); registered: {sorted(ORACLES)}"))
            continue
        outcomes.append(run_oracle_guarded(oracle, corpus.spec_of(record),
                                           library))
    return outcomes
