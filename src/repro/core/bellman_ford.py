"""Bellman-Ford (constraint-graph) formulation of the sequential-slack analysis.

The paper's Table 5 compares the run time of its linear-complexity
topological-propagation analysis against a timing analysis "done using the
Bellman-Ford algorithm as in [10]" (the hierarchical timing-pair model).
This module provides that baseline: the same arrival/required times are
computed by iterative edge relaxation over the constraint graph, i.e. without
exploiting the acyclicity of the timed DFG.  The results are identical to
:func:`repro.core.sequential_slack.compute_sequential_slack`; only the
complexity differs (O(V*E) versus O(V+E)).  They match on cyclic (modulo-II)
timed DFGs too, where both run the same Bellman-Ford passes of
:mod:`repro.core.graphkit`.  The dict-based reference below specifies the
acyclic case only.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.errors import TimingError
from repro.core.sequential_slack import (
    TimingResult,
    aligned_required,
    aligned_start,
    timing_result_from_kernel,
)
from repro.core.timed_dfg import TimedDFG

_EPS = 1e-9


def compute_sequential_slack_bellman_ford(
    timed: TimedDFG,
    delays: Mapping[str, float],
    clock_period: float,
    aligned: bool = False,
    max_passes: int = 0,
) -> TimingResult:
    """Sequential slack via Bellman-Ford relaxation (CSR-kernel fast path).

    ``max_passes`` limits the number of relaxation sweeps (0 means the
    standard ``|V|`` bound).  A :class:`TimingError` is raised if the arrival
    times have not converged within the bound, which indicates a positive
    cycle in the constraint graph: on a cyclic timed DFG, an II below RecMII.

    Runs on the interned CSR snapshot of ``timed`` (see
    :mod:`repro.core.graphkit`), relaxing edges in the same neutral
    name-sorted order as
    :func:`compute_sequential_slack_bellman_ford_reference`; results are
    bit-for-bit identical (asserted by the ``graphkit-kernels`` verify
    oracle and the seeded property suite).
    """
    from repro.core.graphkit import bellman_ford_arrival, bellman_ford_required

    graph = timed.compact()
    delay_vec = graph.delay_vector(delays)
    arrival, improving = bellman_ford_arrival(
        graph, delay_vec, clock_period, aligned=aligned, max_passes=max_passes)
    if improving:
        raise TimingError("constraint graph did not converge (cyclic timed DFG?)")
    required, _ = bellman_ford_required(
        graph, delay_vec, clock_period, aligned=aligned, max_passes=max_passes)
    return timing_result_from_kernel(graph, arrival, required, delay_vec,
                                     clock_period, aligned)


def compute_sequential_slack_bellman_ford_reference(
    timed: TimedDFG,
    delays: Mapping[str, float],
    clock_period: float,
    aligned: bool = False,
    max_passes: int = 0,
) -> TimingResult:
    """Reference Bellman-Ford: dict-based edge relaxation, kept as the
    executable specification of the CSR passes on acyclic timed DFGs (see
    module docstring)."""
    if clock_period <= 0:
        raise TimingError("clock period must be positive")
    nodes = timed.nodes
    # A generic constraint-graph implementation has no topological ordering to
    # exploit; iterate edges in a neutral (name-sorted) order so the baseline
    # does not accidentally benefit from the construction order of the DFG.
    edges = sorted(timed.edges, key=lambda e: (e.src, e.dst, e.weight))
    passes_bound = max_passes if max_passes > 0 else max(len(nodes), 1)

    # ---- arrival times: longest-path relaxation ---------------------------------
    arrival: Dict[str, float] = {}
    for node in nodes:
        arrival[node] = 0.0 if not timed.predecessors(node) else -float("inf")
    converged = False
    for _ in range(passes_bound):
        changed = False
        for edge in edges:
            src_value = arrival[edge.src]
            if src_value == -float("inf"):
                continue
            src_delay = float(delays.get(edge.src, 0.0))
            start = src_value
            if aligned:
                start = aligned_start(start, src_delay, clock_period)
            candidate = start + src_delay - clock_period * edge.weight
            if candidate > arrival[edge.dst] + _EPS:
                arrival[edge.dst] = candidate
                changed = True
        if not changed:
            converged = True
            break
    if not converged:
        # One extra verification sweep: any further improvement means a cycle.
        for edge in edges:
            src_value = arrival[edge.src]
            if src_value == -float("inf"):
                # Same guard as the relaxation loop: a still-unreached source
                # can never improve its destination, and feeding -inf into
                # aligned_start() would overflow the cycle computation.
                continue
            src_delay = float(delays.get(edge.src, 0.0))
            start = src_value
            if aligned:
                start = aligned_start(start, src_delay, clock_period)
            if start + src_delay - clock_period * edge.weight > arrival[edge.dst] + 1e-6:
                raise TimingError("constraint graph did not converge (cyclic timed DFG?)")

    # ---- required times: shortest-path relaxation --------------------------------
    required: Dict[str, float] = {}
    for node in nodes:
        node_delay = float(delays.get(node, 0.0))
        required[node] = (clock_period - node_delay
                          if not timed.successors(node) else float("inf"))
    for _ in range(passes_bound):
        changed = False
        for edge in edges:
            dst_value = required[edge.dst]
            if dst_value == float("inf"):
                continue
            src_delay = float(delays.get(edge.src, 0.0))
            candidate = dst_value - src_delay + clock_period * edge.weight
            if aligned:
                candidate = aligned_required(candidate, src_delay, clock_period)
            if candidate < required[edge.src] - _EPS:
                required[edge.src] = candidate
                changed = True
        if not changed:
            break

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
