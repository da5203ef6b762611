"""Compact CSR graph substrate for the timing/slack hot path.

The paper's slack-based flow spends nearly all of its runtime in repeated
longest-path / slack relaxation passes over the timed DFG.  The original
implementations traverse a dict-of-objects graph edge by edge
(:mod:`repro.core.sequential_slack`, :mod:`repro.core.bellman_ford`); this
module provides the array-based core they now run on:

* **interning** — node names are mapped once to dense integer indices;
* **CSR adjacency** — successors and predecessors are stored as classic
  compressed-sparse-row triples (``indptr`` / ``indices`` / ``weights``)
  backed by :mod:`array` arrays, so a whole traversal touches three flat
  buffers instead of millions of dict/attribute lookups;
* **cached topological order** — computed once per graph (min-position-first
  Kahn, identical to :meth:`repro.core.timed_dfg.TimedDFG.topological_order`);
* **kernels** — one per timing question, aligned and plain: the linear
  topological :func:`arrival_kernel` (which also returns the effective
  aligned starts the delta evaluator seeds from) and :func:`required_kernel`
  of the paper's Section V, and one Bellman-Ford pass per direction
  (:func:`bellman_ford_arrival`, :func:`bellman_ford_required`) whose start
  vector follows ``graph.cyclic``, for the Table-5 baseline, modulo-II slack
  and RecMII probing alike.

Exactness contract
------------------

Every kernel replays the float operations of its reference implementation
(`compute_*_reference` in :mod:`repro.core.sequential_slack` /
:mod:`repro.core.bellman_ford`) in an order whose result is bit-for-bit
identical: per-edge candidate expressions are kept verbatim and reductions
are pure ``max``/``min``, which are order-independent in value.  The only
algebraic change is hoisting the aligned-start adjustment of a node out of
its per-successor-edge loop — a pure function of already-final values, so
the hoisted result is the same float.  :func:`kernel_vs_reference_problems`
is the executable form of this contract; the ``graphkit-*`` oracles in
:mod:`repro.verify.oracles` and the seeded property suite both call it.  The
references specify acyclic graphs only; the modulo-II case of the
Bellman-Ford passes is pinned by the name-keyed reference in
``tests/test_core_cyclic_kernels.py``.

Invalidation
------------

A :class:`CompactTimedGraph` is a frozen snapshot.  :class:`TimedDFG` caches
one per graph object and drops it on any ``add_node``/``add_edge`` — the
same rule as its cached topological order — so a compact view can never
outlive the structure it was interned from.  Build one directly with
:meth:`CompactTimedGraph.from_timed` when bypassing that cache.

:meth:`CompactTimedGraph.reweighted` derives a snapshot with the same
structure and new edge weights.  It shares its base's interning, CSR index
arrays, topological order and topo positions, all of which depend on the
structure only, and owns its weight arrays and delta-seed cache; the base
is never modified, so a shared base (e.g. the timed graph of a cached
:class:`repro.flows.pipeline.PointArtifacts`) stays valid for every reader.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TimingError

_NEG_INF = -float("inf")
_POS_INF = float("inf")

#: Slack-comparison epsilon of the topological kernels (mirrors
#: ``repro.core.sequential_slack._EPS`` — the aligned helpers' tolerance).
ALIGN_EPS = 1e-6

#: Relaxation epsilon of the Bellman-Ford kernels (mirrors
#: ``repro.core.bellman_ford._EPS``).
BF_EPS = 1e-9


class CompactTimedGraph:
    """An interned, CSR-encoded snapshot of a timed DFG.

    ``names[i]`` is the node interned at index ``i`` (insertion order of the
    source graph); ``index`` maps names back.  ``succ_indptr[v]:succ_indptr
    [v+1]`` slices ``succ_dst``/``succ_weight`` to the outgoing edges of
    ``v``; the ``pred_*`` triple is the transposed (incoming) view.  All six
    are :mod:`array` arrays — no third-party dependencies.

    The arrays are the canonical, compact storage; the kernels additionally
    materialize plain-list copies on first use (``pred_view``/``succ_view``/
    ``topo_view``) because CPython indexes lists ~2x faster than arrays.  A
    graph that runs a kernel therefore holds both representations for its
    lifetime — a deliberate memory-for-speed trade at these graph sizes
    (hundreds of nodes); graphs that are only inspected never pay it.
    """

    __slots__ = (
        "names", "index", "num_nodes", "num_edges", "cyclic",
        "succ_indptr", "succ_dst", "succ_weight",
        "pred_indptr", "pred_src", "pred_weight",
        "op_indices", "_succ_edge", "_pred_edge",
        "_topo", "_topo_view", "_topo_pos", "_bf_edges", "_pred_view",
        "_succ_view", "_delta_seeds",
    )

    #: Structure-only attributes a :meth:`reweighted` graph shares with its
    #: base (everything except the weights and the caches derived from them).
    _STRUCTURE = (
        "names", "index", "num_nodes", "num_edges", "cyclic",
        "succ_indptr", "succ_dst", "pred_indptr", "pred_src", "op_indices",
        "_succ_edge", "_pred_edge", "_topo", "_topo_view", "_topo_pos",
    )

    def __init__(
        self,
        names: Sequence[str],
        edges: Sequence[Tuple[int, int, int]],
        op_indices: Optional[Sequence[int]] = None,
        cyclic: bool = False,
    ):
        self.names: Tuple[str, ...] = tuple(names)
        self.index: Dict[str, int] = {
            name: position for position, name in enumerate(self.names)
        }
        if len(self.index) != len(self.names):
            raise TimingError("compact graph node names must be unique")
        n = len(self.names)
        self.num_nodes = n
        self.num_edges = len(edges)
        self.cyclic = bool(cyclic)

        succ_counts = [0] * (n + 1)
        pred_counts = [0] * (n + 1)
        for src, dst, weight in edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise TimingError("compact graph edge references unknown node")
            if weight < 0 and not self.cyclic:
                raise TimingError(
                    "timed-DFG edge weights are state counts and must be >= 0")
            succ_counts[src + 1] += 1
            pred_counts[dst + 1] += 1
        for position in range(n):
            succ_counts[position + 1] += succ_counts[position]
            pred_counts[position + 1] += pred_counts[position]

        succ_dst = [0] * self.num_edges
        succ_weight = [0] * self.num_edges
        pred_src = [0] * self.num_edges
        pred_weight = [0] * self.num_edges
        # slot -> position of the edge in ``edges`` (what reweighted() reads).
        succ_edge = [0] * self.num_edges
        pred_edge = [0] * self.num_edges
        succ_fill = list(succ_counts)
        pred_fill = list(pred_counts)
        for position, (src, dst, weight) in enumerate(edges):
            slot = succ_fill[src]
            succ_dst[slot] = dst
            succ_weight[slot] = weight
            succ_edge[slot] = position
            succ_fill[src] = slot + 1
            slot = pred_fill[dst]
            pred_src[slot] = src
            pred_weight[slot] = weight
            pred_edge[slot] = position
            pred_fill[dst] = slot + 1

        self.succ_indptr = array("l", succ_counts)
        self.succ_dst = array("l", succ_dst)
        self.succ_weight = array("l", succ_weight)
        self.pred_indptr = array("l", pred_counts)
        self.pred_src = array("l", pred_src)
        self.pred_weight = array("l", pred_weight)
        if op_indices is None:
            op_indices = range(n)
        self.op_indices = array("l", op_indices)
        self._succ_edge = succ_edge
        self._pred_edge = pred_edge
        self._topo: Optional[array] = None
        self._topo_view: Optional[list] = None
        self._topo_pos: Optional[list] = None
        self._bf_edges: Optional[List[Tuple[int, int, int]]] = None
        self._pred_view: Optional[Tuple[list, list, list]] = None
        self._succ_view: Optional[Tuple[list, list, list]] = None
        # Lazily filled by DeltaSlackEvaluator: (delays, clock, aligned) ->
        # initial kernel vectors.
        self._delta_seeds: Optional[dict] = None

    # -- construction --------------------------------------------------------------

    @classmethod
    def from_timed(cls, timed) -> "CompactTimedGraph":
        """Intern a :class:`repro.core.timed_dfg.TimedDFG`.

        Operation (non-sink) nodes are recorded in insertion order so kernel
        results can be exported as name-keyed dicts matching the reference
        implementations exactly — including dict insertion order, which
        downstream tie-breaks observe.
        """
        names = timed.node_names()
        index = {name: position for position, name in enumerate(names)}
        edges = [(index[src], index[dst], weight)
                 for src, dst, weight in timed.edge_triples()]
        op_indices = [index[name] for name in timed.operation_nodes]
        return cls(names, edges, op_indices=op_indices,
                   cyclic=getattr(timed, "cyclic", False))

    def reweighted(self, weights: Sequence[int]) -> "CompactTimedGraph":
        """This graph's structure with new edge weights.

        ``weights`` holds one weight per edge, in the order of the ``edges``
        the base graph was built from (for :meth:`from_timed`, the timed
        DFG's edge insertion order).  The result shares the interning, the
        CSR index arrays, the topological order and the topo positions with
        this graph; it owns new ``succ_weight``/``pred_weight`` arrays and an
        empty delta-seed cache.  This graph's weights are left unchanged.
        """
        if len(weights) != self.num_edges:
            raise TimingError(
                f"reweighting needs {self.num_edges} edge weights, "
                f"got {len(weights)}")
        if not self.cyclic and weights and min(weights) < 0:
            raise TimingError(
                "timed-DFG edge weights are state counts and must be >= 0")
        if not self.cyclic:
            self.topo_positions()
        pred_indptr, pred_src, _ = self.pred_view()
        succ_indptr, succ_dst, _ = self.succ_view()
        graph = CompactTimedGraph.__new__(CompactTimedGraph)
        for name in self._STRUCTURE:
            setattr(graph, name, getattr(self, name))
        succ_weight = [weights[edge] for edge in self._succ_edge]
        pred_weight = [weights[edge] for edge in self._pred_edge]
        graph.succ_weight = array("l", succ_weight)
        graph.pred_weight = array("l", pred_weight)
        graph._succ_view = (succ_indptr, succ_dst, succ_weight)
        graph._pred_view = (pred_indptr, pred_src, pred_weight)
        graph._bf_edges = None
        graph._delta_seeds = None
        return graph

    # -- cached derived structures ---------------------------------------------------

    @property
    def topo(self) -> array:
        """Topological order (node indices); min-insertion-position-first Kahn."""
        if self._topo is None:
            self._topo = self._compute_topo()
        return self._topo

    def _compute_topo(self) -> array:
        import heapq

        indptr = self.pred_indptr
        indegree = [indptr[v + 1] - indptr[v] for v in range(self.num_nodes)]
        ready = [v for v in range(self.num_nodes) if indegree[v] == 0]
        heapq.heapify(ready)
        order = array("l")
        succ_indptr = self.succ_indptr
        succ_dst = self.succ_dst
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for slot in range(succ_indptr[node], succ_indptr[node + 1]):
                dst = succ_dst[slot]
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    heapq.heappush(ready, dst)
        if len(order) != self.num_nodes:
            raise TimingError("timed DFG is cyclic — backward edges were not removed")
        return order

    def topo_view(self) -> list:
        """The topological order as a plain list (kernel hot-loop view)."""
        if self._topo_view is None:
            self._topo_view = list(self.topo)
        return self._topo_view

    def topo_positions(self) -> list:
        """``positions[node]`` = the node's index in :meth:`topo_view`; cached."""
        if self._topo_pos is None:
            positions = [0] * self.num_nodes
            for position, node in enumerate(self.topo_view()):
                positions[node] = position
            self._topo_pos = positions
        return self._topo_pos

    def pred_view(self) -> Tuple[list, list, list]:
        """``(indptr, src, weight)`` as plain lists — the kernels' hot-loop
        view (CPython indexes lists ~2x faster than arrays); cached."""
        if self._pred_view is None:
            self._pred_view = (list(self.pred_indptr), list(self.pred_src),
                               list(self.pred_weight))
        return self._pred_view

    def succ_view(self) -> Tuple[list, list, list]:
        """``(indptr, dst, weight)`` as plain lists; cached."""
        if self._succ_view is None:
            self._succ_view = (list(self.succ_indptr), list(self.succ_dst),
                               list(self.succ_weight))
        return self._succ_view

    def bf_edge_order(self) -> List[Tuple[int, int, int]]:
        """Edges as ``(src, dst, weight)`` index triples in the neutral
        name-sorted order the Bellman-Ford baseline iterates in."""
        if self._bf_edges is None:
            names = self.names
            triples = []
            indptr = self.succ_indptr
            dst_arr = self.succ_dst
            weight_arr = self.succ_weight
            for src in range(self.num_nodes):
                for slot in range(indptr[src], indptr[src + 1]):
                    triples.append((src, dst_arr[slot], weight_arr[slot]))
            triples.sort(key=lambda e: (names[e[0]], names[e[1]], e[2]))
            self._bf_edges = triples
        return self._bf_edges

    # -- helpers ---------------------------------------------------------------------

    def delay_vector(self, delays: Mapping[str, float]) -> List[float]:
        """Per-node float delays (missing names default to 0.0, like the
        ``delays.get(name, 0.0)`` convention of the reference code)."""
        get = delays.get
        return [float(get(name, 0.0)) for name in self.names]

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"CompactTimedGraph({self.num_nodes} nodes, "
                f"{self.num_edges} edges)")


# -- longest-path kernels (topological) ---------------------------------------------


def arrival_kernel(
    graph: CompactTimedGraph,
    delays: Sequence[float],
    clock_period: float,
    aligned: bool = False,
) -> Tuple[List[float], List[float]]:
    """Arrival (earliest start) times for every node, by interned index.

    Returns ``(arrival, effective)``: ``effective`` is the aligned start each
    node's successors observe (equal to ``arrival`` when ``aligned`` is
    false), which :class:`repro.core.delta_slack.DeltaSlackEvaluator` needs
    for single-delay updates.  ``arrival`` is bit-identical to
    :func:`repro.core.sequential_slack.compute_arrival_times` — the per-edge
    candidate expression is kept verbatim; the aligned-start adjustment of a
    source node is computed once instead of once per outgoing edge (a pure
    function of final values, so the same float).
    """
    if clock_period <= 0:
        raise TimingError("clock period must be positive")
    n = graph.num_nodes
    arrival = [0.0] * n
    effective = [0.0] * n          # aligned start actually seen by successors
    indptr, src_arr, weight_arr = graph.pred_view()
    floor = math.floor
    eps = ALIGN_EPS
    for node in graph.topo_view():
        lo = indptr[node]
        hi = indptr[node + 1]
        if lo == hi:
            value = 0.0
        else:
            value = _NEG_INF
            for slot in range(lo, hi):
                src = src_arr[slot]
                candidate = (effective[src] + delays[src]
                             - clock_period * weight_arr[slot])
                if candidate > value:
                    value = candidate
        arrival[node] = value
        if aligned:
            delay = delays[node]
            if delay <= eps or delay > clock_period + eps:
                effective[node] = value
            else:
                cycle = floor(value / clock_period + eps)
                offset = value - cycle * clock_period
                if offset + delay > clock_period + eps:
                    effective[node] = (cycle + 1) * clock_period
                else:
                    effective[node] = value
        else:
            effective[node] = value
    return arrival, effective


def required_kernel(
    graph: CompactTimedGraph,
    delays: Sequence[float],
    clock_period: float,
    aligned: bool = False,
) -> List[float]:
    """Required (latest start) times for every node, by interned index.

    Bit-identical to
    :func:`repro.core.sequential_slack.compute_required_times`.
    """
    if clock_period <= 0:
        raise TimingError("clock period must be positive")
    n = graph.num_nodes
    required = [0.0] * n
    indptr, dst_arr, weight_arr = graph.succ_view()
    floor = math.floor
    eps = ALIGN_EPS
    topo = graph.topo_view()
    for position in range(n - 1, -1, -1):
        node = topo[position]
        delay = delays[node]
        lo = indptr[node]
        hi = indptr[node + 1]
        if lo == hi:
            required[node] = clock_period - delay
            continue
        value = _POS_INF
        for slot in range(lo, hi):
            candidate = (required[dst_arr[slot]] - delay
                         + clock_period * weight_arr[slot])
            if candidate < value:
                value = candidate
        if aligned and delay > eps and delay <= clock_period + eps:
            cycle = floor(value / clock_period + eps)
            offset = value - cycle * clock_period
            if offset + delay > clock_period + eps:
                value = (cycle + 1) * clock_period - delay
        required[node] = value
    return required


# -- Bellman-Ford passes (constraint graph) -----------------------------------------


def bellman_ford_arrival(
    graph: CompactTimedGraph,
    delays: Sequence[float],
    clock_period: float,
    aligned: bool = False,
    max_passes: int = 0,
) -> Tuple[List[float], frozenset]:
    """Arrival times by iterative edge relaxation, by interned index.

    Relaxes edges in the neutral name-sorted order of
    :meth:`CompactTimedGraph.bf_edge_order` for at most ``max_passes``
    passes (0 means ``|V|``).  On an acyclic graph predecessor-less nodes
    start at 0.0 and the rest at -inf, replaying
    :func:`repro.core.bellman_ford.compute_sequential_slack_bellman_ford_reference`
    pass for pass.  On a cyclic (modulo-II) graph every node starts at 0.0,
    the base constraint ``Arr(v) >= 0``: a node on a carried cycle has
    predecessors, so the acyclic rule would strand whole cycles at -inf.

    Returns ``(arrival, improving)``: the node indices a verification sweep
    after an unconverged pass budget could still raise, empty at the exact
    fixpoint.  On a cyclic graph a non-empty set means a recurrence gains
    time on every trip: the II is below RecMII.
    """
    if clock_period <= 0:
        raise TimingError("clock period must be positive")
    edges = graph.bf_edge_order()
    passes_bound = max_passes if max_passes > 0 else max(graph.num_nodes, 1)
    if graph.cyclic:
        arrival = [0.0] * graph.num_nodes
    else:
        indptr = graph.pred_indptr
        arrival = [0.0 if indptr[node] == indptr[node + 1] else _NEG_INF
                   for node in range(graph.num_nodes)]
    floor = math.floor
    align_eps = ALIGN_EPS
    converged = False
    for _ in range(passes_bound):
        changed = False
        for src, dst, weight in edges:
            start = arrival[src]
            if start == _NEG_INF:
                continue
            delay = delays[src]
            if aligned and delay > align_eps and delay <= clock_period + align_eps:
                cycle = floor(start / clock_period + align_eps)
                offset = start - cycle * clock_period
                if offset + delay > clock_period + align_eps:
                    start = (cycle + 1) * clock_period
            candidate = start + delay - clock_period * weight
            if candidate > arrival[dst] + BF_EPS:
                arrival[dst] = candidate
                changed = True
        if not changed:
            converged = True
            break
    improving: set = set()
    if not converged:
        for src, dst, weight in edges:
            start = arrival[src]
            if start == _NEG_INF:
                # A still-unreached source can never improve its destination,
                # and aligning -inf would overflow the cycle computation.
                continue
            delay = delays[src]
            if aligned and delay > align_eps and delay <= clock_period + align_eps:
                cycle = floor(start / clock_period + align_eps)
                offset = start - cycle * clock_period
                if offset + delay > clock_period + align_eps:
                    start = (cycle + 1) * clock_period
            if start + delay - clock_period * weight > arrival[dst] + 1e-6:
                improving.add(dst)
    return arrival, frozenset(improving)


def bellman_ford_required(
    graph: CompactTimedGraph,
    delays: Sequence[float],
    clock_period: float,
    aligned: bool = False,
    max_passes: int = 0,
) -> Tuple[List[float], frozenset]:
    """Required times by iterative edge relaxation; mirror of
    :func:`bellman_ford_arrival`.

    Minimizing relaxation seeded at successor-less nodes (the sinks) with
    ``T - delay`` and at +inf elsewhere, on acyclic and cyclic graphs alike.
    ``improving`` holds the source indices a verification sweep could still
    lower.
    """
    if clock_period <= 0:
        raise TimingError("clock period must be positive")
    edges = graph.bf_edge_order()
    passes_bound = max_passes if max_passes > 0 else max(graph.num_nodes, 1)
    indptr = graph.succ_indptr
    required = [clock_period - delays[node]
                if indptr[node] == indptr[node + 1] else _POS_INF
                for node in range(graph.num_nodes)]
    floor = math.floor
    align_eps = ALIGN_EPS
    converged = False
    for _ in range(passes_bound):
        changed = False
        for src, dst, weight in edges:
            dst_value = required[dst]
            if dst_value == _POS_INF:
                continue
            delay = delays[src]
            candidate = dst_value - delay + clock_period * weight
            if aligned and delay > align_eps and delay <= clock_period + align_eps:
                cycle = floor(candidate / clock_period + align_eps)
                offset = candidate - cycle * clock_period
                if offset + delay > clock_period + align_eps:
                    candidate = (cycle + 1) * clock_period - delay
            if candidate < required[src] - BF_EPS:
                required[src] = candidate
                changed = True
        if not changed:
            converged = True
            break
    improving: set = set()
    if not converged:
        for src, dst, weight in edges:
            dst_value = required[dst]
            if dst_value == _POS_INF:
                continue
            delay = delays[src]
            candidate = dst_value - delay + clock_period * weight
            if aligned and delay > align_eps and delay <= clock_period + align_eps:
                cycle = floor(candidate / clock_period + align_eps)
                offset = candidate - cycle * clock_period
                if offset + delay > clock_period + align_eps:
                    candidate = (cycle + 1) * clock_period - delay
            if candidate < required[src] - 1e-6:
                improving.add(src)
    return required, frozenset(improving)


# -- equivalence predicate -----------------------------------------------------------


def kernel_vs_reference_problems(
    timed,
    delays: Mapping[str, float],
    clock_period: float,
) -> List[str]:
    """Exact-equality check of every kernel against its reference.

    Runs the sequential-slack and Bellman-Ford computations through both the
    array kernels and the original dict-of-objects implementations, aligned
    and plain, and returns a list of human-readable discrepancies (empty =
    agreement).  Equality is ``==`` on every float — the kernels promise
    bit-identity, not mere closeness.  This is the single predicate shared
    by the ``graphkit-kernels`` verify oracle and the seeded property suite,
    so an oracle violation and a property-test failure shrink to the same
    kind of reproducer.
    """
    from repro.core.bellman_ford import (
        compute_sequential_slack_bellman_ford,
        compute_sequential_slack_bellman_ford_reference,
    )
    from repro.core.sequential_slack import (
        compute_sequential_slack,
        compute_sequential_slack_reference,
    )

    problems: List[str] = []
    pairs = (
        ("slack", compute_sequential_slack, compute_sequential_slack_reference),
        ("bellman-ford", compute_sequential_slack_bellman_ford,
         compute_sequential_slack_bellman_ford_reference),
    )
    for aligned in (False, True):
        for label, kernel_fn, reference_fn in pairs:
            kernel = kernel_fn(timed, delays, clock_period, aligned=aligned)
            reference = reference_fn(timed, delays, clock_period, aligned=aligned)
            for field_name in ("arrival", "required", "slack", "delays"):
                kernel_map = getattr(kernel, field_name)
                reference_map = getattr(reference, field_name)
                if list(kernel_map) != list(reference_map):
                    problems.append(
                        f"{label} aligned={aligned}: {field_name} keys differ")
                    continue
                for name, reference_value in reference_map.items():
                    kernel_value = kernel_map[name]
                    if kernel_value != reference_value:
                        problems.append(
                            f"{label} aligned={aligned}: {field_name}[{name}] "
                            f"kernel={kernel_value!r} != "
                            f"reference={reference_value!r}")
                        if len(problems) >= 8:
                            return problems
    return problems
