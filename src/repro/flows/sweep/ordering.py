"""Sweep-order planning: visit design points so neighbors differ in one knob.

A design point has three knobs: the latency budget (which changes the design
*structure* the factory builds), the pipeline initiation interval and the
clock period.  The session's delta-evaluation machinery — interned designs,
one :class:`~repro.flows.pipeline.PointArtifacts` bundle per structure, the
template/seed caches under :func:`repro.core.budgeting.budget_slack` — pays
off exactly when consecutive evaluations share structure, so the planner
groups points by ``(latency, pipeline_ii)`` and sweeps the clock within each
group.  Crossing a group boundary changes exactly one structural knob at a
time (clock resets are free: artifacts are clock-independent).

The plan is a permutation of indices; results are always reported back in
the caller's original order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.flows.dse import DesignPoint


def sweep_plan(points: Sequence[DesignPoint]) -> List[int]:
    """Indices of ``points`` in delta-friendly evaluation order.

    Stable: points with identical knobs keep their relative input order, so
    the plan (and therefore the evaluation schedule) is deterministic for a
    given input sequence.
    """

    def knob_key(item: Tuple[int, DesignPoint]):
        point = item[1]
        # Non-pipelined points sort before pipelined ones at the same
        # latency; within a (latency, II) group the clock sweeps ascending.
        ii_group = (0, 0) if point.pipeline_ii is None else (1, point.pipeline_ii)
        return (point.latency, ii_group, point.clock_period)

    return [index for index, _ in sorted(enumerate(points), key=knob_key)]


def knob_distance(a: DesignPoint, b: DesignPoint) -> int:
    """How many knobs differ between two design points (0..3)."""
    return ((a.latency != b.latency)
            + (a.pipeline_ii != b.pipeline_ii)
            + (a.clock_period != b.clock_period))
