"""n-dimensional Pareto-front analytics over DSE sweep metrics.

The sweep harnesses (:func:`repro.flows.dse.run_dse`,
:class:`repro.flows.sweep.SweepSession`, :class:`repro.explore.adaptive.AdaptiveExplorer`)
produce JSON-safe per-point metrics dicts (the shape of
:meth:`repro.flows.dse.DSEEntry.metrics`).  This module turns those records
into :class:`FrontPoint` objective vectors and provides the classic
multi-objective toolbox on top:

* :func:`pareto_front` — non-dominated subset extraction (deterministic:
  input order is preserved, the first of two exactly-equal vectors wins);
* :func:`dominates` / :func:`epsilon_dominates` — dominance checks, with
  per-objective additive or relative epsilons for the latter;
* :func:`hypervolume` — the dominated-volume indicator against a reference
  point (recursive slicing, exact for the small fronts a sweep produces);
* :func:`knee_point` — the "best trade-off" member of a front;
* :func:`coverage` — the fraction of one point set that is epsilon-dominated
  by another (used by the adaptive-vs-dense recovery guarantee).

All objective vectors are normalized to *minimization*: objectives whose
registered sense is ``"max"`` (throughput, saving) are negated on the way
in, and reports negate them back for display (see
:data:`OBJECTIVE_SENSES`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ReproError

#: Optimization sense of every registered objective.  ``"min"`` objectives
#: enter the vector unchanged; ``"max"`` objectives are negated so that the
#: whole toolbox uniformly minimizes.  Per-flow objectives are read from the
#: flow sub-dict of a metrics record; ``saving_percent`` lives at the top
#: level of a :meth:`DSEEntry.metrics` record.
OBJECTIVE_SENSES: Dict[str, str] = {
    "area": "min",
    "power": "min",
    "latency_steps": "min",
    "registers": "min",
    "fu_instances": "min",
    "runtime_s": "min",
    "initiation_interval": "min",
    "throughput": "max",
    "saving_percent": "max",
}

#: Objectives read from the top level of a metrics record instead of from a
#: flow sub-dict.
_TOP_LEVEL_OBJECTIVES = ("saving_percent",)

#: Objectives read from the ``point`` sub-dict of a metrics record.
#: ``initiation_interval`` is the point's states-between-kernel-starts:
#: ``pipeline_ii`` when pipelined, the latency otherwise — the II axis of
#: the II-vs-area frontier.
_POINT_OBJECTIVES = ("initiation_interval",)

#: An epsilon specification: a plain float is an additive slack in objective
#: units; a ``("rel", fraction)`` pair scales with the covered point's value.
EpsilonSpec = Union[float, Tuple[str, float]]


@dataclass(frozen=True)
class FrontPoint:
    """One evaluated design point projected onto an objective vector.

    ``values`` is the minimization-normalized vector (``"max"`` objectives
    are negated); ``objectives`` names its components; ``metrics`` keeps the
    raw record for reporting and is excluded from equality.
    """

    label: str
    objectives: Tuple[str, ...]
    values: Tuple[float, ...]
    metrics: Optional[Mapping[str, object]] = field(
        default=None, compare=False, hash=False, repr=False)

    def raw_value(self, objective: str) -> float:
        """The display (un-negated) value of one objective."""
        index = self.objectives.index(objective)
        value = self.values[index]
        return -value if OBJECTIVE_SENSES.get(objective) == "max" else value


def objective_vector(
    metrics: Mapping[str, object],
    objectives: Sequence[str],
    flow: str = "slack_based",
) -> Tuple[float, ...]:
    """Extract a minimization-normalized objective vector from one record.

    ``metrics`` has the :meth:`DSEEntry.metrics` shape: flow sub-dicts
    (``"slack_based"`` / ``"conventional"``) plus top-level fields.  Raises
    :class:`ReproError` on unknown objectives or records that lack one.
    """
    values: List[float] = []
    flow_metrics = metrics.get(flow)
    for name in objectives:
        sense = OBJECTIVE_SENSES.get(name)
        if sense is None:
            raise ReproError(
                f"unknown objective {name!r}; registered objectives: "
                f"{sorted(OBJECTIVE_SENSES)}")
        if name in _POINT_OBJECTIVES:
            point_info = metrics.get("point")
            if not isinstance(point_info, Mapping):
                raise ReproError(
                    f"metrics record has no 'point' sub-dict for objective "
                    f"{name!r} (keys: {sorted(metrics)})")
            raw = point_info.get("pipeline_ii")
            if raw is None:
                raw = point_info.get("latency")
        elif name in _TOP_LEVEL_OBJECTIVES:
            raw = metrics.get(name)
        else:
            if not isinstance(flow_metrics, Mapping):
                raise ReproError(
                    f"metrics record has no {flow!r} flow sub-dict "
                    f"(keys: {sorted(metrics)})")
            raw = flow_metrics.get(name)
        if raw is None:
            raise ReproError(f"metrics record lacks objective {name!r}")
        value = float(raw)
        if not math.isfinite(value):
            raise ReproError(
                f"objective {name!r} is non-finite ({value!r}); failed "
                "design points cannot enter a Pareto front")
        values.append(-value if sense == "max" else value)
    return tuple(values)


def front_from_metrics(
    metrics_list: Sequence[Mapping[str, object]],
    objectives: Sequence[str] = ("latency_steps", "area"),
    flow: str = "slack_based",
) -> List[FrontPoint]:
    """Project metrics records onto :class:`FrontPoint`\\ s (no filtering)."""
    points = []
    for record in metrics_list:
        point_info = record.get("point")
        label = point_info.get("name") if isinstance(point_info, Mapping) else None
        points.append(FrontPoint(
            label=str(label) if label is not None else f"p{len(points)}",
            objectives=tuple(objectives),
            values=objective_vector(record, objectives, flow=flow),
            metrics=record,
        ))
    return points


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` (all <=, at least one <)."""
    if len(a) != len(b):
        raise ReproError("objective vectors of different lengths are not comparable")
    no_worse = all(x <= y for x, y in zip(a, b))
    return no_worse and any(x < y for x, y in zip(a, b))


def _epsilon_values(b: Sequence[float],
                    epsilon: Union[EpsilonSpec, Sequence[EpsilonSpec]],
                    length: int) -> List[float]:
    specs: List[EpsilonSpec]
    if isinstance(epsilon, (int, float)) or (
            isinstance(epsilon, tuple) and len(epsilon) == 2
            and epsilon[0] == "rel"):
        specs = [epsilon] * length  # type: ignore[list-item]
    else:
        specs = list(epsilon)  # type: ignore[arg-type]
        if len(specs) != length:
            raise ReproError(
                f"epsilon spec has {len(specs)} entries for {length} objectives")
    slacks = []
    for spec, value in zip(specs, b):
        if isinstance(spec, tuple):
            mode, amount = spec
            if mode != "rel":
                raise ReproError(f"unknown epsilon mode {mode!r}")
            slacks.append(abs(value) * float(amount))
        else:
            slacks.append(float(spec))
    return slacks


def epsilon_dominates(
    a: Sequence[float],
    b: Sequence[float],
    epsilon: Union[EpsilonSpec, Sequence[EpsilonSpec]],
) -> bool:
    """True iff ``a`` dominates ``b`` up to a per-objective slack.

    ``a`` epsilon-dominates ``b`` when ``a[i] <= b[i] + eps_i`` for every
    objective, where ``eps_i`` comes from ``epsilon``: a float is additive,
    ``("rel", f)`` means ``f * |b[i]|``, and a sequence gives one spec per
    objective.  Equality is allowed in every component (a point
    epsilon-dominates itself).
    """
    if len(a) != len(b):
        raise ReproError("objective vectors of different lengths are not comparable")
    slacks = _epsilon_values(b, epsilon, len(a))
    return all(x <= y + eps for x, y, eps in zip(a, b, slacks))


def pareto_front(points: Sequence[FrontPoint]) -> List[FrontPoint]:
    """The non-dominated subset of ``points``, in input order.

    Exact duplicates (identical vectors) keep only their first occurrence,
    so the front is an antichain: no member dominates or equals another.
    """
    front: List[FrontPoint] = []
    seen_vectors = set()
    for candidate in points:
        if candidate.values in seen_vectors:
            continue
        if any(dominates(other.values, candidate.values) for other in points
               if other.values != candidate.values):
            continue
        seen_vectors.add(candidate.values)
        front.append(candidate)
    return front


def coverage(
    covering: Sequence[FrontPoint],
    covered: Sequence[FrontPoint],
    epsilon: Union[EpsilonSpec, Sequence[EpsilonSpec]] = 0.0,
) -> float:
    """Fraction of ``covered`` points epsilon-dominated by some ``covering`` point.

    ``coverage(adaptive_front, dense_front, eps) == 1.0`` is the adaptive
    sweep's recovery guarantee: every dense-grid frontier point has an
    adaptive representative within epsilon.  An empty ``covered`` set is
    vacuously fully covered.
    """
    if not covered:
        return 1.0
    hit = sum(
        1 for target in covered
        if any(epsilon_dominates(source.values, target.values, epsilon)
               for source in covering)
    )
    return hit / len(covered)


def front_invariant_violations(
    points: Sequence[FrontPoint],
    front: Optional[Sequence[FrontPoint]] = None,
) -> List[str]:
    """Check the defining invariants of a Pareto front; return violations.

    ``front`` defaults to ``pareto_front(points)``; passing an explicitly
    computed front instead checks that *that* front is the correct one for
    ``points``.  The invariants (each failure contributes one message):

    * **membership** — every front vector occurs among the input vectors;
    * **antichain** — no front member dominates another and no two front
      members share a vector;
    * **completeness** — every input point is either on the front (by
      vector) or dominated by some front member;
    * **coverage** — ``coverage(front, points, 0)`` is exactly 1.0;
    * **hypervolume consistency** — the front dominates exactly the volume
      the full set dominates (w.r.t. :func:`reference_point` of the inputs);
    * **knee membership** — :func:`knee_point` of the front is a member.

    An empty ``points`` yields an empty front and no violations.  This is
    the front-invariant oracle of the differential-fuzzing layer
    (:mod:`repro.verify.oracles`), usable on any generated front.
    """
    points = list(points)
    front = list(pareto_front(points)) if front is None else list(front)
    violations: List[str] = []
    if not points:
        if front:
            violations.append(
                f"front has {len(front)} member(s) for an empty point set")
        return violations

    vectors = {p.values for p in points}
    for member in front:
        if member.values not in vectors:
            violations.append(
                f"front member {member.label} ({member.values}) is not an "
                "input point")

    seen: Dict[Tuple[float, ...], str] = {}
    for member in front:
        if member.values in seen:
            violations.append(
                f"front members {seen[member.values]} and {member.label} "
                f"share the vector {member.values}")
        seen[member.values] = member.label
    for a in front:
        for b in front:
            if a is not b and dominates(a.values, b.values):
                violations.append(
                    f"front member {a.label} dominates front member {b.label}")

    front_vectors = {m.values for m in front}
    for point in points:
        if point.values in front_vectors:
            continue
        if not any(dominates(m.values, point.values) or m.values == point.values
                   for m in front):
            violations.append(
                f"point {point.label} ({point.values}) is neither on the "
                "front nor dominated by it")

    if front:
        cover = coverage(front, points, 0.0)
        if cover != 1.0:
            violations.append(
                f"front covers only {cover:.6f} of the input points")
        reference = reference_point(points)
        hv_front = hypervolume(front, reference)
        hv_all = hypervolume(points, reference)
        if not math.isclose(hv_front, hv_all, rel_tol=1e-9, abs_tol=1e-9):
            violations.append(
                f"front hypervolume {hv_front!r} != full-set hypervolume "
                f"{hv_all!r}")
        knee = knee_point(front)
        if all(knee is not member for member in front):
            violations.append(f"knee point {knee.label} is not a front member")
    elif points:
        violations.append(f"empty front for {len(points)} input point(s)")
    return violations


def _hv_recursive(values: List[Tuple[float, ...]], reference: Tuple[float, ...]) -> float:
    """Exact dominated hypervolume by recursive slicing over the last axis."""
    if not values:
        return 0.0
    if len(reference) == 1:
        best = min(v[0] for v in values)
        return max(0.0, reference[0] - best)
    order = sorted(set(v[-1] for v in values))
    volume = 0.0
    for index, level in enumerate(order):
        ceiling = order[index + 1] if index + 1 < len(order) else reference[-1]
        thickness = ceiling - level
        if thickness <= 0:
            continue
        slab = [v[:-1] for v in values if v[-1] <= level]
        volume += thickness * _hv_recursive(slab, reference[:-1])
    return volume


def hypervolume(points: Sequence[FrontPoint],
                reference: Sequence[float]) -> float:
    """The volume of objective space dominated by ``points`` up to ``reference``.

    Minimization orientation: a point contributes the box between its vector
    and the reference.  Points at or beyond the reference in any objective
    contribute nothing.  Exact but exponential in the number of objectives —
    fine for the 2-4 objective fronts a sweep produces.
    """
    reference = tuple(float(r) for r in reference)
    if points and len(points[0].values) != len(reference):
        raise ReproError("reference point dimensionality mismatch")
    clipped = [p.values for p in points
               if all(v < r for v, r in zip(p.values, reference))]
    return _hv_recursive(clipped, reference)


def reference_point(points: Sequence[FrontPoint]) -> Tuple[float, ...]:
    """A deterministic reference for :func:`hypervolume`: the componentwise
    worst value pushed out by 5 % of the objective's observed range (with a
    small absolute floor, so degenerate axes still have volume)."""
    if not points:
        raise ReproError("a reference point of an empty set is undefined")
    dims = len(points[0].values)
    ref = []
    for axis in range(dims):
        column = [p.values[axis] for p in points]
        worst, best = max(column), min(column)
        pad = max((worst - best) * 0.05, abs(worst) * 1e-6, 1e-9)
        ref.append(worst + pad)
    return tuple(ref)


def _normalized(points: Sequence[FrontPoint]) -> List[Tuple[float, ...]]:
    dims = len(points[0].values)
    lows = [min(p.values[a] for p in points) for a in range(dims)]
    highs = [max(p.values[a] for p in points) for a in range(dims)]
    spans = [(hi - lo) if hi > lo else 1.0 for lo, hi in zip(lows, highs)]
    return [tuple((p.values[a] - lows[a]) / spans[a] for a in range(dims))
            for p in points]


def knee_point(front: Sequence[FrontPoint]) -> FrontPoint:
    """The best-trade-off member of a front.

    With two objectives this is the classic knee: the point with the largest
    perpendicular distance below the chord through the front's two extreme
    points (objectives normalized to [0, 1] first).  With other objective
    counts it falls back to the point with the smallest Euclidean norm of
    the normalized vector — the "closest to the ideal corner" member.  Ties
    break towards the earlier input point, so the choice is deterministic.
    """
    if not front:
        raise ReproError("the knee of an empty front is undefined")
    if len(front) == 1:
        return front[0]
    norm = _normalized(front)
    if len(front[0].values) == 2:
        start = min(range(len(front)), key=lambda i: (norm[i][0], norm[i][1]))
        end = min(range(len(front)), key=lambda i: (norm[i][1], norm[i][0]))
        (x1, y1), (x2, y2) = norm[start], norm[end]
        dx, dy = x2 - x1, y2 - y1
        chord = math.hypot(dx, dy)
        if chord <= 0:
            return front[0]
        best_index, best_distance = 0, -math.inf
        for index, (x, y) in enumerate(norm):
            # Signed distance, positive towards the ideal corner: points on
            # the convex side of the chord are knee candidates, non-convex
            # bulges away from the ideal are not.
            distance = (dx * (y1 - y) - dy * (x1 - x)) / chord
            if distance > best_distance + 1e-12:
                best_index, best_distance = index, distance
        return front[best_index]
    best_index = min(range(len(front)),
                     key=lambda i: (sum(v * v for v in norm[i]), i))
    return front[best_index]
