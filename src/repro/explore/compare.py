"""Frontier comparison across workloads, flows and exploration modes.

Answers the questions a sweep campaign ends with: *did the adaptive run
recover the dense frontier?*  *What does the slack-based flow's frontier buy
over the conventional one?*

All comparisons work on :class:`repro.explore.pareto.FrontPoint` lists with
identical objective tuples; hypervolumes are computed against one shared
reference point so they are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import ReproError
from repro.explore.pareto import (
    EpsilonSpec,
    FrontPoint,
    coverage,
    epsilon_dominates,
    front_from_metrics,
    hypervolume,
    pareto_front,
    reference_point,
)


@dataclass
class FrontierDiff:
    """How two frontiers relate under one shared hypervolume reference.

    ``coverage_ab`` is the fraction of B's points epsilon-dominated by A
    (and vice versa); ``only_in_a`` are A's members no B point
    epsilon-dominates (A's exclusive contributions), symmetrically for
    ``only_in_b``.
    """

    name_a: str
    name_b: str
    epsilon: EpsilonSpec
    reference: Tuple[float, ...] = ()
    hypervolume_a: float = 0.0
    hypervolume_b: float = 0.0
    coverage_ab: float = 0.0
    coverage_ba: float = 0.0
    only_in_a: List[FrontPoint] = field(default_factory=list)
    only_in_b: List[FrontPoint] = field(default_factory=list)

    @property
    def hypervolume_ratio(self) -> float:
        """HV(A)/HV(B); ``inf`` when B dominates nothing."""
        if self.hypervolume_b <= 0:
            return float("inf") if self.hypervolume_a > 0 else 1.0
        return self.hypervolume_a / self.hypervolume_b

    def summary(self) -> Dict[str, object]:
        return {
            "a": self.name_a,
            "b": self.name_b,
            "hypervolume_a": self.hypervolume_a,
            "hypervolume_b": self.hypervolume_b,
            "hypervolume_ratio": self.hypervolume_ratio,
            "coverage_ab": self.coverage_ab,
            "coverage_ba": self.coverage_ba,
            "only_in_a": [p.label for p in self.only_in_a],
            "only_in_b": [p.label for p in self.only_in_b],
        }


def _check_comparable(front_a: Sequence[FrontPoint],
                      front_b: Sequence[FrontPoint]) -> None:
    if front_a and front_b and front_a[0].objectives != front_b[0].objectives:
        raise ReproError(
            f"frontiers optimize different objectives: "
            f"{front_a[0].objectives} vs {front_b[0].objectives}")


def compare_frontiers(
    front_a: Sequence[FrontPoint],
    front_b: Sequence[FrontPoint],
    epsilon: EpsilonSpec = 0.0,
    name_a: str = "A",
    name_b: str = "B",
) -> FrontierDiff:
    """Diff two frontiers: shared-reference hypervolumes, mutual epsilon
    coverage and each side's exclusive points."""
    _check_comparable(front_a, front_b)
    merged = list(front_a) + list(front_b)
    reference = reference_point(merged) if merged else ()
    diff = FrontierDiff(name_a=name_a, name_b=name_b, epsilon=epsilon,
                        reference=reference)
    if merged:
        diff.hypervolume_a = hypervolume(front_a, reference)
        diff.hypervolume_b = hypervolume(front_b, reference)
    diff.coverage_ab = coverage(front_a, front_b, epsilon)
    diff.coverage_ba = coverage(front_b, front_a, epsilon)
    diff.only_in_a = [
        p for p in front_a
        if not any(epsilon_dominates(q.values, p.values, epsilon)
                   for q in front_b)
    ]
    diff.only_in_b = [
        p for p in front_b
        if not any(epsilon_dominates(q.values, p.values, epsilon)
                   for q in front_a)
    ]
    return diff


def flow_frontiers(metrics_list: Sequence[Mapping[str, object]],
                   ) -> Dict[str, List[FrontPoint]]:
    """The conventional-flow and slack-based-flow latency/area frontiers of
    one sweep."""
    return {
        flow: pareto_front(front_from_metrics(
            metrics_list, ("latency_steps", "area"), flow=flow))
        for flow in ("conventional", "slack_based")
    }


def compare_flows(metrics_list: Sequence[Mapping[str, object]]) -> FrontierDiff:
    """Slack-based vs conventional latency/area frontier of the same sweep
    (the paper's central comparison, lifted from per-point savings to
    frontiers)."""
    fronts = flow_frontiers(metrics_list)
    return compare_frontiers(fronts["slack_based"], fronts["conventional"],
                             name_a="slack_based", name_b="conventional")

