"""Batched cross-point sweep evaluation behind one session object.

A one-point evaluation treats the design point as an island: the factory
builds a fresh design, the analyses are computed from scratch and the two
flows run.  A sweep, however, is a *sequence* of closely related points —
the same structure at several clock periods, neighboring latencies,
pipelined variants — and the delta-evaluation kernels underneath the slack
flow (the :class:`repro.core.delta_slack.DeltaSlackEvaluator`, the budget
and span templates, the per-graph seed vectors) only amortize when
consecutive evaluations actually share their design objects and artifact
bundles.

:class:`SweepSession` is the object that makes the sharing deliberate:

* **interning** — every point's design is fingerprinted
  (:func:`repro.core.analysis_cache.design_fingerprint`) and interned by
  ``(fingerprint, name, pipeline_ii)``; later points that rebuild the same
  structure are swapped onto the *original* design object, so every
  identity-keyed template and seed cache downstream hits instead of
  re-deriving;
* **session bundles** — one :class:`~repro.flows.pipeline.PointArtifacts`
  bundle per structure, built once per session
  (:meth:`~repro.flows.pipeline.PointArtifacts.build`) and held by the
  session: a per-sweep memo lives in the session, so the session never
  looks up the process-wide artifacts table of
  :mod:`repro.core.analysis_cache`;
* **delta ordering** — :meth:`run` visits points in the
  :func:`~repro.flows.sweep.ordering.sweep_plan` order (grouped by
  structure, clock swept within a group) so neighbors differ in one knob,
  then reports results in the caller's original order;
* **full-evaluation fallback** — a point whose schedule structure diverges
  (a fingerprint the session has not seen) cannot reuse anything and is
  evaluated from scratch; the session counts these so callers can see how
  much of a sweep rode the delta path;
* **failure isolation** — :meth:`run` records a point that raises in
  ``DSEResult.failures`` and goes on with the rest of the sweep;
* **process pool** — ``run(points, workers=n)`` fans the points out over
  ``n`` worker processes, each evaluating through its own session.

Exactness contract: a session evaluation is bit-for-bit identical to a
standalone :func:`~repro.flows.dse.evaluate_point` on the same point — the
interning only substitutes structurally identical objects, and a bundle is
a pure function of the design's structure.  The same holds for a pool
worker's session, so ``run(points, workers=n)`` returns the serial metrics
byte for byte.  The ``sweep-session`` oracle of :mod:`repro.verify.oracles`
fuzzes exactly this equivalence on generated scenarios, and the Table-4
golden-metrics file pins it on the paper's IDCT sweep.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.analysis_cache import design_fingerprint
from repro.errors import ReproError
from repro.ir.design import Design
from repro.lib.library import Library
from repro.flows.conventional import conventional_flow
from repro.flows.dse import DesignPoint, DSEEntry, DSEResult, PointFailure
from repro.flows.pipeline import PointArtifacts
from repro.flows.slack_based import slack_based_flow
from repro.flows.sweep.ordering import sweep_plan
from repro.obs.metrics import counter as _obs_counter
from repro.obs.trace import active_tracer as _active_tracer
from repro.obs.trace import span as _obs_span
from repro.obs.trace import tracing as _obs_tracing

#: Registry twins of the :class:`SweepStats` counters — the ad-hoc per-session
#: stats stay the public accessor; these accumulate process-wide so a metrics
#: snapshot sees every session's reuse behaviour without holding the objects.
_POINTS = _obs_counter("sweep.points_evaluated")
_FULL = _obs_counter("sweep.full_evaluations")
_DELTA = _obs_counter("sweep.delta_points")
_INTERNED = _obs_counter("sweep.interned_reuses")

#: One point's outcome: ``(entry, None)`` or ``(None, "<Type>: <message>")``.
_Outcome = Tuple[Optional[DSEEntry], Optional[str]]


@dataclass
class SweepStats:
    """What a session reused versus recomputed, for reporting and tests.

    ``full_evaluations`` counts points whose structure was new to the
    session (the fallback path: nothing to delta against).
    ``delta_points`` counts points that shared a previously seen structure
    and therefore rode the interned designs, the session's bundle and warm
    delta-evaluation caches.  The budgeting kernel's incremental slack
    re-evaluations are process-wide totals, read from
    ``cache_stats()["analysis_cache"]`` (:func:`repro.obs.metrics.cache_stats`).

    Only evaluations in this process are counted: the points a
    ``run(points, workers=n)`` pool evaluates live in the workers' own
    sessions and show up neither here nor in the registry twins.
    """

    points_evaluated: int = 0
    full_evaluations: int = 0
    delta_points: int = 0
    interned_reuses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "points_evaluated": self.points_evaluated,
            "full_evaluations": self.full_evaluations,
            "delta_points": self.delta_points,
            "interned_reuses": self.interned_reuses,
        }


class SweepSession:
    """Evaluate a sweep of design points with cross-point sharing.

    Parameters
    ----------
    design_factory:
        Maps a :class:`~repro.flows.dse.DesignPoint` to a
        :class:`~repro.ir.design.Design` (see
        :mod:`repro.workloads.factories`).  It must pickle for
        ``run(points, workers=n)`` to use a process pool.
    library:
        The resource library shared by every point.
    margin_fraction:
        Slack-binning margin forwarded to the slack-based flow.
    scheduling:
        ``"block"`` (default) or ``"pipeline"``, forwarded to both flows for
        every point.  In pipeline mode each point's ``pipeline_ii`` is the
        target initiation interval (``None`` lets the flows start from the
        computed MII), making II a first-class sweep knob next to latency
        and clock period.

    A session is a per-sweep object: its intern tables and bundles grow
    with the number of distinct structures evaluated and are only released
    with the session.  The memos that outlive it (templates, pinned spans,
    sequential slack) are the process-wide tables of
    :func:`~repro.core.analysis_cache.default_cache`.
    It is not thread-safe; spread a sweep over processes with
    ``run(points, workers=n)`` instead.
    """

    def __init__(
        self,
        design_factory: Callable[[DesignPoint], Design],
        library: Library,
        margin_fraction: float = 0.05,
        scheduling: str = "block",
    ):
        if scheduling not in ("block", "pipeline"):
            raise ReproError(f"unknown scheduling mode {scheduling!r} "
                             f"(expected 'block' or 'pipeline')")
        self.design_factory = design_factory
        self.library = library
        self.margin_fraction = margin_fraction
        self.scheduling = scheduling
        self.stats = SweepStats()
        self._designs: Dict[Tuple[str, str, Optional[int]], Design] = {}
        self._structures: set = set()
        self._bundles: Dict[str, PointArtifacts] = {}

    # -- interning ---------------------------------------------------------------

    def _intern(self, point: DesignPoint) -> Tuple[Design, str]:
        """The session's canonical design for ``point`` plus its fingerprint.

        The probe design is always built (the fingerprint needs it); when an
        earlier point produced an identical structure under the same name
        and initiation interval, the earlier *object* wins so identity-keyed
        caches (budget/span templates, delta seeds) keep hitting.
        """
        probe = self.design_factory(point)
        fingerprint = design_fingerprint(probe)
        key = (fingerprint, probe.name, probe.pipeline_ii)
        design = self._designs.get(key)
        if design is None:
            self._designs[key] = design = probe
        else:
            self.stats.interned_reuses += 1
            _INTERNED.inc()
        if fingerprint in self._structures:
            self.stats.delta_points += 1
            _DELTA.inc()
        else:
            self._structures.add(fingerprint)
            self.stats.full_evaluations += 1
            _FULL.inc()
        return design, fingerprint

    def _artifacts(self, design: Design, fingerprint: str) -> PointArtifacts:
        bundle = self._bundles.get(fingerprint)
        if bundle is None:
            self._bundles[fingerprint] = bundle = PointArtifacts.build(design)
        return bundle

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, point: DesignPoint) -> DSEEntry:
        """Run both flows on one point, reusing everything the session holds."""
        with _obs_span("sweep.point", point=point.name,
                       latency=point.latency, pipeline_ii=point.pipeline_ii,
                       clock_period=point.clock_period):
            design, fingerprint = self._intern(point)
            artifacts = self._artifacts(design, fingerprint)
            conventional = conventional_flow(
                design, self.library, clock_period=point.clock_period,
                pipeline_ii=point.pipeline_ii, artifacts=artifacts,
                scheduling=self.scheduling,
            )
            slack = slack_based_flow(
                design, self.library, clock_period=point.clock_period,
                pipeline_ii=point.pipeline_ii,
                margin_fraction=self.margin_fraction, artifacts=artifacts,
                scheduling=self.scheduling,
            )
        self.stats.points_evaluated += 1
        _POINTS.inc()
        return DSEEntry(point=point, conventional=conventional, slack_based=slack)

    def run(self, points: Sequence[DesignPoint], workers: int = 1) -> DSEResult:
        """Evaluate every point, batched in delta-friendly order.

        Points are *visited* in :func:`~repro.flows.sweep.ordering.sweep_plan`
        order (structure-grouped, clock-adjacent) but the returned
        :class:`~repro.flows.dse.DSEResult` lists entries in the caller's
        input order — per-point results are order-independent, so the two
        views are interchangeable and the golden-metrics tests pin that.

        A point whose evaluation raises an :class:`Exception` lands in
        ``DSEResult.failures`` as ``"<Type>: <message>"`` and the sweep goes
        on (``raise_on_failures()`` serves callers that need every point);
        a :class:`BaseException` such as ``KeyboardInterrupt`` propagates.

        With ``workers > 1`` the points fan out over a process pool of that
        size (spawned, not forked, while other threads run).  Each worker
        evaluates through its own session on its own process-wide analysis
        cache, which the cache contract makes bit-identical; with tracing
        on, the workers' spans are adopted onto the active tracer as
        ``worker:<point>`` tracks.  The run stays serial when at most one
        point is given or when the factory or library does not pickle.
        """
        if workers < 1:
            raise ReproError(f"workers must be at least 1, got {workers}")
        start = time.perf_counter()
        order = sweep_plan(points)
        outcomes: List[_Outcome] = [(None, None)] * len(points)
        with _obs_span("sweep.run", points=len(points),
                       scheduling=self.scheduling):
            if workers > 1 and len(points) > 1 and self._picklable():
                self._run_pool(points, order, min(workers, len(points)),
                               outcomes)
            else:
                for index in order:
                    outcomes[index] = _evaluate_isolated(self, points[index])
        return DSEResult(
            entries=[entry for entry, _ in outcomes if entry is not None],
            failures=[PointFailure(point, error)
                      for point, (_, error) in zip(points, outcomes)
                      if error is not None],
            wall_time_seconds=time.perf_counter() - start)

    def _picklable(self) -> bool:
        import pickle

        try:
            pickle.dumps((self.design_factory, self.library))
        except Exception:  # noqa: BLE001 — lambdas, closures, local classes
            return False
        return True

    def _run_pool(self, points: Sequence[DesignPoint], order: Sequence[int],
                  workers: int, outcomes: List[_Outcome]) -> None:
        import multiprocessing
        import threading
        from concurrent.futures import ProcessPoolExecutor, as_completed

        tracer = _active_tracer()
        # The platform default (fork on Linux) starts fast and re-imports
        # no __main__, but forking a process that runs other threads (a
        # serve worker pool) can deadlock the child: spawn there instead.
        context = None if threading.active_count() == 1 \
            else multiprocessing.get_context("spawn")
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=context, initializer=_start_worker,
            initargs=(self.design_factory, self.library, self.margin_fraction,
                      self.scheduling))
        try:
            futures = [pool.submit(_evaluate_in_worker, index, points[index],
                                   tracer is not None)
                       for index in order]
            for future in as_completed(futures):
                index, entry, error, spans = future.result()
                if spans:
                    tracer.adopt(spans, track=f"worker:{points[index].name}")
                outcomes[index] = (entry, error)
        finally:
            pool.shutdown(cancel_futures=True)


def _evaluate_isolated(session: SweepSession, point: DesignPoint) -> _Outcome:
    """One point through ``session``; an :class:`Exception` becomes a string."""
    try:
        return session.evaluate(point), None
    except Exception as exc:  # noqa: BLE001 — one failing point must not end the sweep
        return None, f"{type(exc).__name__}: {exc}"


#: The pool worker's own session, created once per worker process.
_WORKER_SESSION: Optional[SweepSession] = None


def _start_worker(design_factory, library, margin_fraction: float,
                  scheduling: str) -> None:
    global _WORKER_SESSION
    _WORKER_SESSION = SweepSession(design_factory, library,
                                   margin_fraction=margin_fraction,
                                   scheduling=scheduling)


def _evaluate_in_worker(index: int, point: DesignPoint, trace: bool):
    """Pool task: evaluate one point; with ``trace``, ship its spans back.

    The parent's tracer does not cross the process boundary, so a traced
    worker records into its own tracer and returns the serialised trees.
    """
    with (_obs_tracing() if trace else nullcontext()) as tracer:
        entry, error = _evaluate_isolated(_WORKER_SESSION, point)
    return index, entry, error, tracer.export() if tracer is not None else None
