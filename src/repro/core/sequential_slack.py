"""Sequential slack on the timed DFG (paper Section V, Definitions 3 & 4).

Arrival and required times are *start* times relative to the operation's
earliest control step:

* ``Arr(o)``  — earliest time the inputs of ``o`` are available,
* ``Req(o)``  — latest time ``o`` may start without violating any downstream
  requirement,
* ``slack(o) = Req(o) - Arr(o)``.

Crossing a clock boundary between two dependent operations credits one full
clock period ``T`` (the ``- T * latency`` / ``+ T * latency`` terms), which is
what makes the slack *sequential* (multi-cycle) rather than combinational.

The *aligned* variant additionally forbids an operation from starting so late
in a cycle that it would cross the next clock edge: its effective start is
pushed to the next boundary in the arrival propagation, and pulled back so it
still fits inside its cycle in the required propagation.  This is the
generalisation sketched (but not formalised) at the end of Section V.

The whole computation is two linear passes over a topologically sorted timed
DFG (paper Fig. 6) — the efficiency claim benchmarked against the
Bellman-Ford formulation in Table 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from repro.errors import TimingError
from repro.core.timed_dfg import TimedDFG

_EPS = 1e-6


def aligned_start(start: float, delay: float, clock_period: float) -> float:
    """Push ``start`` to the next clock boundary if the operation would cross it.

    Operations longer than the clock period cannot be aligned at all; their
    start is returned unchanged and the resulting negative slack flags the
    infeasibility to the caller.
    """
    if delay <= _EPS or delay > clock_period + _EPS:
        return start
    cycle = math.floor(start / clock_period + _EPS)
    offset = start - cycle * clock_period
    if offset + delay > clock_period + _EPS:
        return (cycle + 1) * clock_period
    return start


def aligned_required(start: float, delay: float, clock_period: float) -> float:
    """Pull a latest-start time back so the operation fits inside its cycle."""
    if delay <= _EPS or delay > clock_period + _EPS:
        return start
    cycle = math.floor(start / clock_period + _EPS)
    offset = start - cycle * clock_period
    if offset + delay > clock_period + _EPS:
        return (cycle + 1) * clock_period - delay
    return start


@dataclass
class TimingResult:
    """Arrival/required/slack for every operation of a timed DFG."""

    clock_period: float
    aligned: bool
    arrival: Dict[str, float]
    required: Dict[str, float]
    slack: Dict[str, float]
    delays: Dict[str, float] = field(default_factory=dict)

    # -- queries -------------------------------------------------------------------

    def worst_slack(self) -> float:
        """The minimum slack over all operations (+inf for an empty design)."""
        if not self.slack:
            return float("inf")
        return min(self.slack.values())

    def critical_operations(self, margin: float = 0.0) -> List[str]:
        """Operations whose slack is within ``margin`` of the worst slack."""
        if not self.slack:
            return []
        worst = self.worst_slack()
        return [name for name, value in self.slack.items()
                if value <= worst + abs(margin) + _EPS]


def compute_arrival_times(
    timed: TimedDFG,
    delays: Mapping[str, float],
    clock_period: float,
    aligned: bool = False,
) -> Dict[str, float]:
    """Arrival (earliest start) times for every node of the timed DFG."""
    if clock_period <= 0:
        raise TimingError("clock period must be positive")
    arrival: Dict[str, float] = {}
    for node in timed.topological_order():
        preds = timed.predecessors(node)
        if not preds:
            arrival[node] = 0.0
            continue
        best = -float("inf")
        for edge in preds:
            src_delay = float(delays.get(edge.src, 0.0))
            start = arrival[edge.src]
            if aligned:
                start = aligned_start(start, src_delay, clock_period)
            candidate = start + src_delay - clock_period * edge.weight
            if candidate > best:
                best = candidate
        arrival[node] = best
    return arrival


def compute_required_times(
    timed: TimedDFG,
    delays: Mapping[str, float],
    clock_period: float,
    aligned: bool = False,
) -> Dict[str, float]:
    """Required (latest start) times for every node of the timed DFG."""
    if clock_period <= 0:
        raise TimingError("clock period must be positive")
    required: Dict[str, float] = {}
    for node in reversed(timed.topological_order()):
        node_delay = float(delays.get(node, 0.0))
        succs = timed.successors(node)
        if not succs:
            required[node] = clock_period - node_delay
            continue
        best = float("inf")
        for edge in succs:
            candidate = required[edge.dst] - node_delay + clock_period * edge.weight
            if candidate < best:
                best = candidate
        if aligned:
            best = aligned_required(best, node_delay, clock_period)
        required[node] = best
    return required


def compute_sequential_slack_reference(
    timed: TimedDFG,
    delays: Mapping[str, float],
    clock_period: float,
    aligned: bool = False,
) -> TimingResult:
    """Reference sequential slack: two dict-based passes over the timed DFG.

    This is the original edge-by-edge implementation, kept as the executable
    specification of :func:`compute_sequential_slack` (the CSR-kernel fast
    path).  The ``graphkit-kernels`` verify oracle and the seeded property
    suite assert the two are equal float for float.
    """
    arrival = compute_arrival_times(timed, delays, clock_period, aligned=aligned)
    required = compute_required_times(timed, delays, clock_period, aligned=aligned)
    slack: Dict[str, float] = {}
    op_arrival: Dict[str, float] = {}
    op_required: Dict[str, float] = {}
    for node in timed.operation_nodes:
        op_arrival[node] = arrival[node]
        op_required[node] = required[node]
        slack[node] = required[node] - arrival[node]
    return TimingResult(
        clock_period=clock_period,
        aligned=aligned,
        arrival=op_arrival,
        required=op_required,
        slack=slack,
        delays={name: float(delays.get(name, 0.0)) for name in timed.operation_nodes},
    )


def timing_result_from_kernel(
    graph,
    arrival: Sequence[float],
    required: Sequence[float],
    delay_vec: Sequence[float],
    clock_period: float,
    aligned: bool,
) -> TimingResult:
    """Export kernel result vectors as an operation-keyed :class:`TimingResult`.

    The single export path for both the topological and the Bellman-Ford
    kernel pairs: iterating ``graph.op_indices`` (operation insertion order)
    reproduces the reference implementations' dict key order exactly, which
    downstream tie-breaks observe — keep any change here in sync with the
    ``*_reference`` functions.
    """
    names = graph.names
    slack: Dict[str, float] = {}
    op_arrival: Dict[str, float] = {}
    op_required: Dict[str, float] = {}
    op_delays: Dict[str, float] = {}
    for index in graph.op_indices:
        name = names[index]
        arrival_value = arrival[index]
        required_value = required[index]
        op_arrival[name] = arrival_value
        op_required[name] = required_value
        slack[name] = required_value - arrival_value
        op_delays[name] = delay_vec[index]
    return TimingResult(
        clock_period=clock_period,
        aligned=aligned,
        arrival=op_arrival,
        required=op_required,
        slack=slack,
        delays=op_delays,
    )


def compute_sequential_slack(
    timed: TimedDFG,
    delays: Mapping[str, float],
    clock_period: float,
    aligned: bool = False,
) -> TimingResult:
    """Sequential (or aligned) slack of every operation node of ``timed``.

    ``delays`` maps operation names to their assumed delays; missing entries
    default to zero (constants, copies).  Sink nodes always have zero delay.
    Returns a :class:`TimingResult` keyed by *operation* names only — sink
    nodes are an implementation detail and are stripped from the result.

    Runs on the interned CSR snapshot of ``timed`` (see
    :mod:`repro.core.graphkit`); results are bit-for-bit identical to
    :func:`compute_sequential_slack_reference`, including the key order of
    the result dicts (operation insertion order), which downstream
    tie-breaks observe.

    A *cyclic* timed DFG (``timed.cyclic``, built by
    :func:`repro.core.timed_dfg.build_cyclic_timed_dfg` at a concrete II) has
    no topological order, so it runs on the Bellman-Ford passes of
    :mod:`repro.core.graphkit` instead: arrival/required are then modulo-II
    fixpoints, and an II below the recurrence minimum raises
    :class:`TimingError` (a node still improving after the pass budget).
    """
    from repro.core.graphkit import (
        arrival_kernel,
        bellman_ford_arrival,
        bellman_ford_required,
        required_kernel,
    )

    graph = timed.compact()
    delay_vec = graph.delay_vector(delays)
    if graph.cyclic:
        arrival, improving = bellman_ford_arrival(graph, delay_vec,
                                                  clock_period, aligned=aligned)
        if not improving:
            required, improving = bellman_ford_required(
                graph, delay_vec, clock_period, aligned=aligned)
        if improving:
            raise TimingError(
                "cyclic constraint graph did not converge — the initiation "
                "interval is below the recurrence minimum (RecMII)")
    else:
        arrival, _ = arrival_kernel(graph, delay_vec, clock_period,
                                    aligned=aligned)
        required = required_kernel(graph, delay_vec, clock_period,
                                   aligned=aligned)
    return timing_result_from_kernel(graph, arrival, required, delay_vec,
                                     clock_period, aligned)
