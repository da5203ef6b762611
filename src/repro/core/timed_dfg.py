"""The timed DFG (paper Section V, Definition 2).

The timed DFG is the netlist-like graph on which sequential slack is
computed.  It is derived from the DFG by:

1. dropping backward (loop-carried) data edges, which makes it acyclic;
2. dropping constant inputs (they never affect timing);
3. adding a *sink* node ``s(o)`` for every operation ``o``, whose early edge
   is the late edge of ``o`` — the sink models "the latest point where o's
   result must be committed to a register";
4. weighting every edge with the CFG latency between the early edges of its
   endpoints (the number of clock boundaries that may separate them).

The structure (steps 1-3) does not depend on the opSpans at all: the nodes
are the non-constant operations followed by their sinks, and the edges the
forward data edges between two of them followed by one sink edge per
operation, always in the same order.  The spans feed only the weights
(step 4), and :func:`bound_weights` is the one place that rule lives, fed
the positions of the early and late edges of each edge's endpoints.  So a pinned prefix's
timed graph is the design's own compact graph with a new weight vector
(:meth:`repro.core.graphkit.CompactTimedGraph.reweighted`): the
slack-guided scheduler's per-edge re-budget writes the weights into its
schedule pass's own copy of that graph instead of building a new
:class:`TimedDFG`.

Storage is flat: nodes are a list plus an interning dict, edges three
parallel ``(src, dst, weight)`` lists.  The object views the older API
exposed (:class:`TimedEdge` lists, per-node successor/predecessor lists) are
materialized lazily on first use — the timing kernels never ask for them;
they run on the :meth:`TimedDFG.compact` CSR snapshot
(:class:`repro.core.graphkit.CompactTimedGraph`), which is cached per graph
and invalidated by any mutation, exactly like the cached topological order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import TimingError
from repro.ir.design import Design
from repro.ir.operations import OpKind
from repro.core.latency import EdgeBitsets, LatencyAnalysis
from repro.core.opspan import OperationSpans


SINK_PREFIX = "__sink__"


def sink_name(op_name: str) -> str:
    """Name of the sink node attached to operation ``op_name``."""
    return SINK_PREFIX + op_name


def is_sink_name(node_name: str) -> bool:
    return node_name.startswith(SINK_PREFIX)


@dataclass(frozen=True)
class TimedEdge:
    """A weighted edge of the timed DFG."""

    src: str
    dst: str
    weight: int


class TimedDFG:
    """A latency-weighted view of a DFG.

    The default (block-bounded) construction is acyclic: backward data edges
    are dropped and every weight is a nonnegative state count.  A *cyclic*
    timed DFG (``cyclic=True``, built by :func:`build_cyclic_timed_dfg`)
    additionally keeps loop-carried edges, whose weights are
    ``distance * II`` state counts adjusted by the intra-iteration offset of
    the endpoints and may therefore be negative.  The flag is the explicit
    seam every consumer dispatches on: acyclic graphs keep running the
    topological kernels bit-identically, cyclic graphs go to Bellman-Ford.
    """

    def __init__(self, name: str = "timed_dfg", cyclic: bool = False):
        self.name = name
        self.cyclic = bool(cyclic)
        self._nodes: List[str] = []
        self._node_index: Dict[str, int] = {}
        self._edge_src: List[str] = []
        self._edge_dst: List[str] = []
        self._edge_weight: List[int] = []
        # Lazily materialized views and caches (dropped on any mutation).
        self._edge_objs: Optional[List[TimedEdge]] = None
        self._succ: Optional[Dict[str, List[TimedEdge]]] = None
        self._pred: Optional[Dict[str, List[TimedEdge]]] = None
        self._topo: Optional[List[str]] = None
        self._compact = None

    # -- construction -----------------------------------------------------------

    def _invalidate(self) -> None:
        self._edge_objs = None
        self._succ = None
        self._pred = None
        self._topo = None
        self._compact = None

    def add_node(self, name: str) -> None:
        if name in self._node_index:
            raise TimingError(f"duplicate timed-DFG node {name!r}")
        self._node_index[name] = len(self._nodes)
        self._nodes.append(name)
        self._invalidate()

    def add_edge(self, src: str, dst: str, weight: int) -> None:
        node_index = self._node_index
        for endpoint in (src, dst):
            if endpoint not in node_index:
                raise TimingError(f"timed-DFG edge references unknown node {endpoint!r}")
        if weight < 0 and not self.cyclic:
            raise TimingError("timed-DFG edge weights are state counts and must be >= 0")
        self._edge_src.append(src)
        self._edge_dst.append(dst)
        self._edge_weight.append(int(weight))
        self._invalidate()

    # -- accessors ---------------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    def node_names(self) -> Tuple[str, ...]:
        """All node names in insertion order (shared tuple — do not mutate)."""
        return tuple(self._nodes)

    @property
    def edges(self) -> List[TimedEdge]:
        return list(self._edge_view())

    def _edge_view(self) -> List[TimedEdge]:
        if self._edge_objs is None:
            self._edge_objs = [
                TimedEdge(src, dst, weight)
                for src, dst, weight in zip(self._edge_src, self._edge_dst,
                                            self._edge_weight)
            ]
        return self._edge_objs

    def edge_triples(self):
        """Edges as ``(src, dst, weight)`` name triples, insertion order."""
        return zip(self._edge_src, self._edge_dst, self._edge_weight)

    def edge_pairs(self):
        """Edges as ``(src, dst)`` name pairs, insertion order."""
        return zip(self._edge_src, self._edge_dst)

    @property
    def operation_nodes(self) -> List[str]:
        """Nodes that correspond to real DFG operations (not sinks)."""
        return [n for n in self._nodes if not is_sink_name(n)]

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edge_src)

    def has_node(self, name: str) -> bool:
        return name in self._node_index

    def _adjacency(self) -> Tuple[Dict[str, List[TimedEdge]], Dict[str, List[TimedEdge]]]:
        if self._succ is None or self._pred is None:
            succ: Dict[str, List[TimedEdge]] = {n: [] for n in self._nodes}
            pred: Dict[str, List[TimedEdge]] = {n: [] for n in self._nodes}
            for edge in self._edge_view():
                succ[edge.src].append(edge)
                pred[edge.dst].append(edge)
            self._succ = succ
            self._pred = pred
        return self._succ, self._pred

    def successors(self, name: str) -> List[TimedEdge]:
        return list(self._adjacency()[0][name])

    def predecessors(self, name: str) -> List[TimedEdge]:
        return list(self._adjacency()[1][name])

    def compact(self):
        """The cached CSR snapshot of this graph (see :mod:`repro.core.graphkit`).

        Rebuilt after any mutation; treat the returned object as immutable.
        """
        if self._compact is None:
            from repro.core.graphkit import CompactTimedGraph

            self._compact = CompactTimedGraph.from_timed(self)
        return self._compact

    def topological_order(self) -> List[str]:
        """Topological order of all nodes; cached.

        Computed on the compact CSR view (min-insertion-position-first Kahn,
        the same order the original dict-based implementation produced); a
        cyclic graph raises :class:`TimingError`.
        """
        if self._topo is None:
            names = self._nodes
            self._topo = [names[index] for index in self.compact().topo]
        return list(self._topo)

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"TimedDFG({self.name}: {len(self._nodes)} nodes, "
                f"{len(self._edge_src)} edges)")


def bound_weights(
    pairs: Iterable[Tuple[object, Optional[object]]],
    early: Union[Sequence[int], Mapping[str, int]],
    late: Union[Sequence[int], Mapping[str, int]],
    bits: EdgeBitsets,
    names: Optional[Sequence[str]] = None,
) -> List[int]:
    """The weight of every timed-DFG edge, from its endpoints' span bounds.

    Step 4 of Definition 2, the one place its rule lives: a data edge
    ``(src, dst)`` weighs ``latency(early[src], early[dst])``, and
    ``(src, None)``, the sink edge ``src -> s(src)``, weighs
    ``latency(early[src], late[src])``.  ``early`` and ``late`` hold edge
    positions (:attr:`repro.core.latency.EdgeBitsets.position`), indexed by
    the keys ``pairs`` uses (operation names, or op indices with ``names``
    mapping them back for the error text), so each weight is the entry of
    ``bits.rows`` at the two positions.  Raises :class:`TimingError` at the
    first edge whose latency is undefined.
    """
    rows = bits.rows
    weights: List[int] = []
    for src, dst in pairs:
        src_early = early[src]
        other = late[src] if dst is None else early[dst]
        weight = rows[src_early][other]
        if weight is None:
            labels = bits.labels
            label = names[src] if names is not None else src
            if dst is None:
                raise TimingError(
                    f"operation {label!r} has a late edge unreachable from "
                    f"its early edge"
                )
            dst_label = names[dst] if names is not None else dst
            raise TimingError(
                f"data edge {label!r} -> {dst_label!r} connects operations "
                f"whose early edges ({labels[src_early]!r}, "
                f"{labels[other]!r}) are not forward related"
            )
        weights.append(weight)
    return weights


def timed_edge_weights(
    edges: Iterable[Tuple[str, str]],
    spans: OperationSpans,
    latency: LatencyAnalysis,
) -> List[int]:
    """The weight of every ``(src, dst)`` timed-DFG edge under ``spans``.

    :func:`bound_weights` on the positions of the spans' early and late
    edges, for :func:`build_timed_dfg` and
    :meth:`repro.core.analysis_cache.AnalysisCache.pinned_spans_and_timed`.
    """
    bits = latency.edge_bitsets()
    position = bits.position
    span = spans.span
    early: Dict[str, int] = {}
    late: Dict[str, int] = {}
    pairs = []
    for src, dst in edges:
        if dst.startswith(SINK_PREFIX):
            dst = None
        for name in (src, dst):
            if name is not None and name not in early:
                info = span(name)
                early[name] = position[info.early]
                late[name] = position[info.late]
        pairs.append((src, dst))
    return bound_weights(pairs, early, late, bits)


def build_timed_dfg(
    design: Design,
    spans: Optional[OperationSpans] = None,
    latency: Optional[LatencyAnalysis] = None,
) -> TimedDFG:
    """Construct the timed DFG of ``design``.

    Constant operations are excluded (step 2 of the paper's Definition 2);
    every remaining operation keeps its name, so delay maps and timing
    results are keyed directly by DFG operation names.
    """
    latency = latency or LatencyAnalysis(design.cfg)
    spans = spans or OperationSpans(design, latency=latency)
    timed = TimedDFG(f"{design.name}.timed")

    dfg = design.dfg
    included = [op.name for op in dfg.operations if op.kind is not OpKind.CONST]
    sinks = [sink_name(name) for name in included]
    members = set(included)
    edges = [(edge.src, edge.dst) for edge in dfg.forward_edges
             if edge.src in members and edge.dst in members]
    edges.extend(zip(included, sinks))
    weights = timed_edge_weights(edges, spans, latency)

    for name in included + sinks:
        timed.add_node(name)
    for (src, dst), weight in zip(edges, weights):
        timed.add_edge(src, dst, weight)
    return timed


def carried_edge_weight(
    src_early: str,
    dst_early: str,
    distance: int,
    ii: int,
    latency: LatencyAnalysis,
) -> int:
    """State count separating a carried dependence's endpoints at interval ``ii``.

    The consumer instance runs ``distance`` iterations — ``distance * ii``
    states — after the producer instance, adjusted by the intra-iteration
    offset between the endpoints' early edges.  A negative result means the
    consumer's control step comes *before* the producer's within the modulo
    schedule; the Bellman-Ford kernels handle that (the whole point of the
    cyclic path), the topological ones cannot.
    """
    offset = latency.latency(src_early, dst_early)
    if offset is None:
        reverse = latency.latency(dst_early, src_early)
        if reverse is None:
            raise TimingError(
                f"carried edge endpoints on unrelated edges "
                f"({src_early!r}, {dst_early!r})")
        offset = -reverse
    return int(distance) * int(ii) + int(offset)


def build_cyclic_timed_dfg(
    design: Design,
    ii: int,
    spans: Optional[OperationSpans] = None,
    latency: Optional[LatencyAnalysis] = None,
) -> TimedDFG:
    """Construct the *cyclic* timed DFG of ``design`` at initiation interval ``ii``.

    Same construction as :func:`build_timed_dfg` — same nodes, same forward
    edges with identical weights, same sinks — plus one edge per loop-carried
    (backward) data dependence, weighted
    :func:`carried_edge_weight` states.  Arrival/required/slack over the
    result are defined *modulo II*: the recurrence constraint
    ``Arr(dst) >= Arr(src) + delay(src) - T * weight`` with
    ``weight = distance * II + intra_offset`` is exactly the paper-standard
    ``delay - distance * II`` cyclic edge-weight model expressed in state
    counts.  An infeasible II (a recurrence whose cycle gains time every trip)
    surfaces as Bellman-Ford non-convergence — a :class:`TimingError` from
    the cyclic kernels, which is how RecMII probing works.
    """
    if ii < 1:
        raise TimingError(f"initiation interval must be >= 1, got {ii}")
    latency = latency or LatencyAnalysis(design.cfg)
    spans = spans or OperationSpans(design, latency=latency)
    acyclic = build_timed_dfg(design, spans=spans, latency=latency)

    timed = TimedDFG(f"{design.name}.timed_ii{ii}", cyclic=True)
    for node in acyclic.nodes:
        timed.add_node(node)
    for src, dst, weight in acyclic.edge_triples():
        timed.add_edge(src, dst, weight)

    for edge in design.dfg.backward_edges:
        if not (timed.has_node(edge.src) and timed.has_node(edge.dst)):
            continue
        weight = carried_edge_weight(
            spans.early(edge.src), spans.early(edge.dst),
            edge.distance, ii, latency)
        timed.add_edge(edge.src, edge.dst, weight)
    return timed
