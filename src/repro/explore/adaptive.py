"""Adaptive design-space exploration: coarse grid + guided refinement.

A dense sweep evaluates every candidate design point; on the paper's
Table-4 IDCT latency axis that means two full HLS flows per latency even
though most of the curve is flat.  :class:`AdaptiveExplorer` spends flow
evaluations only where the area/latency trade-off has structure:

1. **Coarse wave** — an evenly spaced subgrid of the candidate latencies
   (endpoints always included) is evaluated through one
   :meth:`repro.flows.sweep.SweepSession.run` (batched, over a process
   pool of ``workers``).
2. **Refinement waves** — between consecutive evaluated points the driver
   bisects (successive bisection over the swept latency budget) while the
   local evidence says the frontier may have structure there:

   * *descent*: the area drops by more than :data:`DESCENT_FRACTION`
     from the left endpoint to the right one — the front passes through
     the interval, resolve where;
   * *non-convexity*: an evaluated point's area sits more than
     :data:`CONVEXITY_FRACTION` above the chord of its two neighbours —
     the curve is locally non-convex, so both adjacent intervals may hide
     a dip (each witness point triggers this once; repeated drilling
     around one spike has no frontier payoff);

   and stops on intervals narrower than ``width_stop`` latency states.
   An interval is therefore left unrefined for one of two reasons, and
   each bounds the recovery error differently: either it reached the
   resolution floor (every interior latency is within ``width_stop - 1``
   states of the interval's endpoints), or the area changed by less than
   the refinement thresholds across it (interior structure, if
   any, is below the thresholds on monotone curves — the property tests
   pin the resulting epsilon-coverage guarantee for monotone step curves,
   and the Table-4 benchmark asserts it empirically on the real,
   non-monotone IDCT curve).
3. **Reuse everywhere** — every wave goes through
   :func:`repro.explore.store.memoized_run`: each candidate point is keyed
   by the fingerprint of its factory-built design
   (:func:`repro.core.analysis_cache.design_fingerprint`) plus its
   clock/margin and looked up in the explorer's
   :class:`repro.explore.store.ResultStore` (an in-memory one unless a
   persistent store is given), and every evaluation is recorded there;
   structurally identical points (and any point explored in an earlier
   session with the same clock/margin) are restored instead of
   re-evaluated.  The good points of a wave are recorded even when another
   point of it fails, so a rerun evaluates only the failures.

The result carries every evaluated metrics record, the Pareto front over
the configured objectives and the evaluation ledger (engine evaluations vs
store restores vs fingerprint dedups), so benchmarks can assert both the
recovery quality and the saved work.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.flows.dse import DesignPoint, DSEResult
from repro.flows.sweep import SweepSession
from repro.explore.pareto import (
    OBJECTIVE_SENSES,
    EpsilonSpec,
    FrontPoint,
    coverage,
    front_from_metrics,
    hypervolume,
    knee_point,
    objective_vector,
    pareto_front,
    reference_point,
)

#: Registered objectives that only exist on live :class:`FlowResult`
#: objects (wall-clock data is deliberately excluded from persisted
#: metrics), so an exploration can never provide them.
_LIVE_ONLY_OBJECTIVES = frozenset({"runtime_s"})
from repro.explore.store import (
    EVALUATED,
    MEMO,
    ResultStore,
    StoreKey,
    memoized_run,
)

#: The objective the refinement rules watch.
GUIDE_OBJECTIVE = "area"
#: Relative drop of the guide objective across an interval that bisects it.
DESCENT_FRACTION = 0.20
#: Relative rise above the neighbours' chord that makes a point a witness.
CONVEXITY_FRACTION = 0.10


@dataclass(frozen=True)
class RefinementPolicy:
    """When the adaptive driver keeps bisecting an interval.

    ``coarse_points`` sizes the initial grid.  ``width_stop`` is the
    resolution floor in latency states: intervals no wider than this are
    final, so the latency error of fully-refined regions is at most
    ``width_stop - 1`` states (intervals whose endpoints agree to within
    :data:`DESCENT_FRACTION` and :data:`CONVEXITY_FRACTION` stop earlier and
    are covered by the relative epsilon instead — see the module docstring
    for the exact guarantee).
    """

    coarse_points: int = 5
    width_stop: int = 3

    def __post_init__(self):
        if self.coarse_points < 2:
            raise ReproError("the coarse grid needs at least its two endpoints")
        if self.width_stop < 1:
            raise ReproError("width_stop must be at least 1")


@dataclass
class ExplorationResult:
    """Everything one exploration produced, plus its evaluation ledger."""

    workload: str
    mode: str  # "adaptive" | "dense"
    objectives: Tuple[str, ...]
    flow: str
    #: Evaluated metrics, keyed by latency.
    curve: Dict[int, Mapping[str, object]] = field(default_factory=dict)
    points: List[FrontPoint] = field(default_factory=list)
    front: List[FrontPoint] = field(default_factory=list)
    engine_evaluations: int = 0
    restored: int = 0
    deduplicated: int = 0
    waves: int = 0
    wall_time_seconds: float = 0.0

    @property
    def flow_runs(self) -> int:
        """Flow executions actually issued (two flows per engine evaluation)."""
        return 2 * self.engine_evaluations

    @property
    def evaluated_latencies(self) -> List[int]:
        return sorted(self.curve)

    def hypervolume(self, reference: Optional[Sequence[float]] = None) -> float:
        """Dominated hypervolume of the front (auto-reference if omitted)."""
        if not self.points:
            return 0.0
        ref = tuple(reference) if reference is not None \
            else reference_point(self.points)
        return hypervolume(self.front, ref)

    def knee(self) -> FrontPoint:
        return knee_point(self.front)

    def covers(self, other: "ExplorationResult",
               epsilon: EpsilonSpec = 0.0) -> float:
        """Fraction of ``other``'s front epsilon-dominated by this front."""
        return coverage(self.front, other.front, epsilon)


def _snap_grid(domain: Sequence[int], count: int) -> List[int]:
    """``count`` evenly spaced members of ``domain``, endpoints included."""
    if len(domain) <= count:
        return list(domain)
    last = len(domain) - 1
    indices = sorted({round(i * last / (count - 1)) for i in range(count)})
    return [domain[i] for i in indices]


class AdaptiveExplorer:
    """Adaptive (or dense) exploration of a latency sweep for one workload.

    Parameters
    ----------
    design_factory:
        Maps a :class:`DesignPoint` to a design (see
        :mod:`repro.workloads.factories`); picklable factories unlock the
        process pool.
    library:
        Resource library shared by all points.
    latencies:
        The candidate (dense) grid of latencies.  The adaptive mode
        evaluates a subset of it; :meth:`explore_dense` evaluates all.
    clock_period / margin_fraction:
        Fixed per-sweep parameters of every design point (block
        scheduling, no pipelining; II sweeps run through
        ``SweepSession(scheduling="pipeline")``).
    objectives / flow:
        The Pareto objectives (see
        :data:`repro.explore.pareto.OBJECTIVE_SENSES`) and which flow's
        metrics feed them.  The refinement rules watch
        :data:`GUIDE_OBJECTIVE`.
    store:
        Optional :class:`ResultStore` (or any memo, e.g. the serve layer's
        :class:`~repro.serve.cache.MemoCache`); hits skip flow evaluation
        and results are recorded, so a re-run of any exploration is free.
        Without one the explorer memoizes in an in-memory store.
    evaluator:
        Testing/simulation hook replacing the flows, called once per
        evaluated point as ``evaluator(factory, library, point,
        margin_fraction, scheduling) -> metrics dict`` (the serve layer's
        evaluator signature).  Store and fingerprint reuse still apply
        around it.
    workers:
        Worker processes per evaluation wave (default: one per CPU).  A
        wave with one pending point, or a factory that does not pickle,
        runs serially in this process.
    """

    def __init__(
        self,
        design_factory: Callable[[DesignPoint], object],
        library,
        latencies: Sequence[int],
        clock_period: float = 1500.0,
        margin_fraction: float = 0.05,
        objectives: Sequence[str] = ("latency_steps", "area"),
        flow: str = "slack_based",
        policy: Optional[RefinementPolicy] = None,
        store: Optional[ResultStore] = None,
        workload: str = "",
        evaluator: Optional[Callable[..., Dict[str, object]]] = None,
        workers: Optional[int] = None,
    ):
        domain = sorted(set(int(latency) for latency in latencies))
        if not domain:
            raise ReproError("an exploration needs at least one candidate latency")
        # Validate the objective selection up front: a typo must fail here,
        # not after the full sweep cost has been paid.
        for name in objectives:
            if name not in OBJECTIVE_SENSES:
                raise ReproError(
                    f"unknown objective {name!r}; registered objectives: "
                    f"{sorted(OBJECTIVE_SENSES)}")
            if name in _LIVE_ONLY_OBJECTIVES:
                raise ReproError(
                    f"objective {name!r} is wall-clock data and exists only "
                    "on live FlowResult objects; persisted sweep metrics "
                    "exclude it by design, so explorations cannot optimize "
                    "it (use FlowResult.objective() on individual runs)")
        self.design_factory = design_factory
        self.library = library
        self.domain = domain
        self.clock_period = float(clock_period)
        self.margin_fraction = float(margin_fraction)
        self.objectives = tuple(objectives)
        self.flow = flow
        self.policy = policy or RefinementPolicy()
        self.store = store if store is not None else ResultStore()
        self.workload = workload or getattr(design_factory, "__class__",
                                            type(design_factory)).__name__
        self.evaluator = evaluator
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        # Session state.
        self._curve: Dict[int, Mapping[str, object]] = {}
        self._seen: Set[StoreKey] = set()
        self._exhausted_witnesses: Set[int] = set()
        self._engine_evaluations = 0
        self._restored = 0
        self._deduplicated = 0
        # One sweep session spans every refinement wave, so serial waves
        # keep their interned designs and artifact bundles warm from wave
        # to wave (pool workers evaluate through sessions of their own).
        self._session = SweepSession(design_factory, library,
                                     margin_fraction=self.margin_fraction)

    # -- evaluation --------------------------------------------------------------

    def _point_for(self, latency: int) -> DesignPoint:
        return DesignPoint(name=f"{self.workload}_L{latency}", latency=latency,
                           clock_period=self.clock_period)

    def _guide(self, latency: int) -> float:
        """The guide objective's minimization value at an evaluated latency."""
        return objective_vector(self._curve[latency], (GUIDE_OBJECTIVE,),
                                flow=self.flow)[0]

    def _evaluate(self, latencies: Sequence[int]) -> None:
        """Resolve each new latency through :func:`memoized_run`.

        ``engine_evaluations`` counts evaluated points, ``restored`` memo
        hits on keys not seen earlier in this exploration, ``deduplicated``
        the rest.  A failed point raises after the wave's good points are
        recorded.
        """
        fresh = [latency for latency in latencies if latency not in self._curve]
        outcomes, failures = memoized_run(
            self._session, [self._point_for(latency) for latency in fresh],
            self.store, workload=self.workload, workers=self.workers,
            evaluator=self.evaluator)
        for latency, (key, metrics, source) in zip(fresh, outcomes):
            if metrics is None:
                continue
            self._curve[latency] = metrics
            if source == EVALUATED:
                self._engine_evaluations += 1
            elif source == MEMO and key not in self._seen:
                self._restored += 1
            else:
                self._deduplicated += 1
            self._seen.add(key)
        DSEResult(failures=failures).raise_on_failures()

    # -- refinement --------------------------------------------------------------

    def _refinement_targets(self) -> List[int]:
        """Midpoints of every interval the policy wants bisected next."""
        evaluated = [lat for lat in self.domain if lat in self._curve]
        if len(evaluated) < 2:
            return []
        guide = {lat: self._guide(lat) for lat in evaluated}

        intervals: Set[Tuple[int, int]] = set()

        def magnitude(lat: int) -> float:
            return max(abs(guide[lat]), 1e-12)

        # Descent rule: the guide drops left-to-right by more than the
        # threshold — the frontier descends through this interval.
        for left, right in zip(evaluated, evaluated[1:]):
            drop = guide[left] - guide[right]
            if drop > DESCENT_FRACTION * magnitude(left):
                intervals.add((left, right))

        # Non-convexity witnesses: an evaluated point far above its
        # neighbours' chord flags both adjacent intervals, once per witness.
        for left, mid, right in zip(evaluated, evaluated[1:], evaluated[2:]):
            if mid in self._exhausted_witnesses:
                continue
            t = (mid - left) / (right - left)
            chord = guide[left] + t * (guide[right] - guide[left])
            if guide[mid] - chord > CONVEXITY_FRACTION * max(abs(chord), 1e-12):
                self._exhausted_witnesses.add(mid)
                intervals.add((left, mid))
                intervals.add((mid, right))

        targets = []
        index_of = {lat: i for i, lat in enumerate(self.domain)}
        for left, right in sorted(intervals):
            if right - left <= self.policy.width_stop:
                continue
            mid_index = (index_of[left] + index_of[right]) // 2
            mid = self.domain[mid_index]
            if mid not in self._curve and mid not in (left, right):
                targets.append(mid)
        return sorted(set(targets))

    # -- drivers -----------------------------------------------------------------

    def _result(self, mode: str, waves: int, start: float) -> ExplorationResult:
        metrics_list = [self._curve[lat] for lat in sorted(self._curve)]
        points = front_from_metrics(metrics_list, self.objectives, flow=self.flow)
        return ExplorationResult(
            workload=self.workload,
            mode=mode,
            objectives=self.objectives,
            flow=self.flow,
            curve=dict(sorted(self._curve.items())),
            points=points,
            front=pareto_front(points),
            engine_evaluations=self._engine_evaluations,
            restored=self._restored,
            deduplicated=self._deduplicated,
            waves=waves,
            wall_time_seconds=time.perf_counter() - start,
        )

    def explore(self) -> ExplorationResult:
        """Coarse grid + refinement waves until the policy is satisfied: each
        wave adds a latency to the curve or raises, so waves ≤ latencies."""
        start = time.perf_counter()
        self._evaluate(_snap_grid(self.domain, self.policy.coarse_points))
        waves = 0
        while True:
            targets = self._refinement_targets()
            if not targets:
                break
            self._evaluate(targets)
            waves += 1
        return self._result("adaptive", waves, start)

    def explore_dense(self) -> ExplorationResult:
        """Evaluate the entire candidate grid (the baseline the adaptive
        mode is compared against; store reuse still applies)."""
        start = time.perf_counter()
        self._evaluate(list(self.domain))
        return self._result("dense", 0, start)
