"""Latency between CFG edges (paper Section V, Definition 1).

``latency(e1, e2)`` is the minimum number of state nodes on any forward path
between ``e1`` and ``e2``; it is undefined (``None``) when ``e2`` is not
forward reachable from ``e1``, and 0 when ``e1 == e2``.

The node set counted on a path from edge ``e1`` to edge ``e2`` is
``{head(e1), ..., tail(e2)}`` — i.e. the nodes traversed after leaving ``e1``
and before entering ``e2``, endpoints included.  This convention reproduces
the paper's examples on Fig. 4: ``latency(e4, e6) = 0`` (the two edges share
the join node, which is not a state), ``latency(e1, e7) = 2`` (the path
crosses one branch wait plus the final wait) and ``latency(e3, e4)`` is
undefined (parallel branches).

The analysis also exposes node-to-node minimum state counts and edge
dominance/post-dominance relations, which the opSpan computation needs.
For its bitset kernel (:mod:`repro.core.opspan`) it also builds, once per
CFG, the tables of :class:`EdgeBitsets`: reach and co-reach masks over the
forward edges' topological positions, and a position-indexed latency row
per edge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import TimingError
from repro.ir.cfg import CFG

_INF = float("inf")


class EdgeBitsets:
    """Edge positions, bitsets and latency rows of one CFG.

    Bit ``i`` of a mask stands for the forward edge at topological position
    ``i`` (:meth:`LatencyAnalysis.edge_order`).  Backward edges have no bit,
    but they do have a position, after every forward edge, and masks: an
    operation may be born on, or pinned to, a back edge.

    * ``names[i]`` is the forward edge at position ``i``, and ``labels[p]``
      the edge at position ``p``, back edges included (``position`` is its
      inverse);
    * ``reach[p]`` holds the forward edges reachable from the edge at
      position ``p``, that edge included (the bit form of
      :meth:`LatencyAnalysis.reachable`);
    * ``coreach[p]`` holds the forward edges ``c`` with ``p``'s edge in
      their reach, and ``strict_coreach[p]`` the same without that edge;
    * ``rows[p][q]`` is ``latency(labels[p], labels[q])``, ``None`` where
      undefined, for every pair of edges.
    """

    __slots__ = ("names", "labels", "position", "reach", "coreach",
                 "strict_coreach", "rows")

    def __init__(self, analysis: "LatencyAnalysis"):
        cfg = analysis.cfg
        names = analysis._forward_edges_ordered()
        count = len(names)
        position = dict(analysis._edge_pos)
        for edge in cfg.edges:
            position.setdefault(edge.name, len(position))
        labels = sorted(position, key=position.__getitem__)
        sources = [cfg.edge(name).src for name in labels]
        self.names = names
        self.labels = labels
        self.position = position
        self.reach: List[int] = [0] * len(labels)
        self.coreach: List[int] = [0] * len(labels)
        self.rows: List[List[Optional[int]]] = [[] for _ in labels]
        # One node sweep per source edge yields its reach mask and latency
        # row and, for a forward edge, its bit in every co-reach mask.
        for index, name in enumerate(labels):
            dist = analysis._node_latencies_from(cfg.edge(name).dst)
            row = [None if dist[src] == _INF else int(dist[src])
                   for src in sources]
            row[index] = 0
            self.rows[index] = row
            if index < count:
                for target, src in enumerate(sources):
                    if target == index or dist[src] != _INF:
                        self.coreach[target] |= 1 << index
            mask = 0
            for bit, value in enumerate(row[:count]):
                if value is not None:
                    mask |= 1 << bit
            self.reach[index] = mask
        self.strict_coreach = [
            mask & ~(1 << index) if index < count else mask
            for index, mask in enumerate(self.coreach)
        ]


class LatencyAnalysis:
    """Pre-computed latency, reachability and dominance queries on a CFG.

    Every query is a pure function of the CFG.  One ``LatencyAnalysis`` is
    shared by every scheduling/budgeting pass run on a design (via
    :class:`repro.flows.pipeline.PointArtifacts` and the opSpan machinery):
    ``latency`` memoizes its pairs, and the per-edge opSpan and timed-DFG
    rebuilds read the tables of :meth:`edge_bitsets`.
    """

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        cfg.classify_backward_edges()
        self._topo_nodes = cfg.topological_nodes()
        self._node_pos = {node: index for index, node in enumerate(self._topo_nodes)}
        self._forward_edges = [e.name for e in cfg.forward_edges]
        self._edge_pos = {name: index for index, name in
                         enumerate(cfg.topological_edges())}
        self._state_weight = {
            node.name: (1 if node.is_state else 0) for node in cfg.nodes
        }
        # node -> {reachable node -> min state count including both endpoints}
        self._node_latency: Dict[str, Dict[str, float]] = {}
        self._dominators: Optional[Tuple[List[int], List[int]]] = None
        self._latency_memo: Dict[Tuple[str, str], Optional[int]] = {}
        self._ordered_forward_edges: Optional[List[str]] = None
        self._bitsets: Optional[EdgeBitsets] = None

    # -- node-level helpers ------------------------------------------------------

    def _node_latencies_from(self, source: str) -> Dict[str, float]:
        """Min state count from ``source`` to every forward-reachable node.

        The count includes both endpoints (a state node contributes even when
        it is the source or the destination of the walk).
        """
        cached = self._node_latency.get(source)
        if cached is not None:
            return cached
        dist: Dict[str, float] = {name: _INF for name in self.cfg.node_names}
        dist[source] = float(self._state_weight[source])
        source_pos = self._node_pos[source]
        for node in self._topo_nodes[source_pos:]:
            if dist[node] == _INF:
                continue
            for edge in self.cfg.out_edges(node, forward_only=True):
                candidate = dist[node] + self._state_weight[edge.dst]
                if candidate < dist[edge.dst]:
                    dist[edge.dst] = candidate
        self._node_latency[source] = dist
        return dist

    # -- public queries ------------------------------------------------------------

    def edge_order(self, edge_name: str) -> int:
        """Topological position of a forward edge (used for 'first'/'last')."""
        try:
            return self._edge_pos[edge_name]
        except KeyError:
            raise TimingError(f"{edge_name!r} is not a forward CFG edge") from None

    def latency(self, edge_a: str, edge_b: str) -> Optional[int]:
        """Latency between edges ``edge_a`` and ``edge_b`` (None if undefined)."""
        if edge_a == edge_b:
            return 0
        key = (edge_a, edge_b)
        try:
            return self._latency_memo[key]
        except KeyError:
            pass
        a = self.cfg.edge(edge_a)
        b = self.cfg.edge(edge_b)
        dist = self._node_latencies_from(a.dst)
        value = dist.get(b.src, _INF)
        result = None if value == _INF else int(value)
        self._latency_memo[key] = result
        return result

    def reachable(self, edge_a: str, edge_b: str) -> bool:
        """True if ``edge_b`` is forward reachable from ``edge_a`` (non-strict)."""
        return self.latency(edge_a, edge_b) is not None

    def strictly_reachable(self, edge_a: str, edge_b: str) -> bool:
        """True if ``edge_b`` is reachable from ``edge_a`` and differs from it."""
        return edge_a != edge_b and self.reachable(edge_a, edge_b)

    # -- edge dominance -------------------------------------------------------------

    def _dominator_masks(self) -> Tuple[List[int], List[int]]:
        """Dominator and post-dominator bitsets of every forward edge.

        They are computed on the forward *edge* graph, in which edge ``a``
        precedes edge ``b`` whenever ``head(a) == tail(b)``.  That graph is
        acyclic and positions are topological, so one pass in each direction
        settles every meet.  An entry edge is dominated, and an exit edge
        post-dominated, only by itself.
        """
        if self._dominators is None:
            cfg, position = self.cfg, self._edge_pos
            names = self._forward_edges_ordered()
            dom, pdom = [0] * len(names), [0] * len(names)
            passes = (
                (dom, range(len(names)),
                 lambda edge: cfg.in_edges(edge.src, forward_only=True)),
                (pdom, range(len(names) - 1, -1, -1),
                 lambda edge: cfg.out_edges(edge.dst, forward_only=True)),
            )
            for masks, indices, neighbours in passes:
                for index in indices:
                    adjacent = neighbours(cfg.edge(names[index]))
                    meet = -1 if adjacent else 0
                    for other in adjacent:
                        meet &= masks[position[other.name]]
                    masks[index] = meet | 1 << index
            self._dominators = (dom, pdom)
        return self._dominators

    def _has_bit(self, masks: List[int], edge_a: str, edge_b: str) -> bool:
        """True if the mask of ``edge_b`` holds the bit of ``edge_a``."""
        a, b = self._edge_pos.get(edge_a), self._edge_pos.get(edge_b)
        return a is not None and b is not None and bool(masks[b] >> a & 1)

    def dominates(self, edge_a: str, edge_b: str) -> bool:
        """True if every forward path reaching ``edge_b`` passes through ``edge_a``."""
        return self._has_bit(self._dominator_masks()[0], edge_a, edge_b)

    def postdominates(self, edge_a: str, edge_b: str) -> bool:
        """True if every forward path leaving ``edge_b`` passes through ``edge_a``."""
        return self._has_bit(self._dominator_masks()[1], edge_a, edge_b)

    def control_compatible(self, edge: str, birth_edge: str) -> bool:
        """True if an operation born on ``birth_edge`` may execute on ``edge``.

        Hoisting (speculation) above a branch is allowed when ``edge``
        dominates the birth edge; sinking below a join is allowed when
        ``edge`` post-dominates the birth edge.  Moving sideways into a
        different branch is never allowed — the operation would not execute
        on every run that needs its value.
        """
        return (edge == birth_edge or self.dominates(edge, birth_edge)
                or self.postdominates(edge, birth_edge))

    def _forward_edges_ordered(self) -> List[str]:
        """The shared (do not mutate) topologically ordered forward-edge list."""
        if self._ordered_forward_edges is None:
            self._ordered_forward_edges = sorted(
                self._forward_edges, key=self._edge_pos.__getitem__)
        return self._ordered_forward_edges

    def edge_bitsets(self) -> EdgeBitsets:
        """The shared :class:`EdgeBitsets` of this CFG (built on first use)."""
        if self._bitsets is None:
            self._bitsets = EdgeBitsets(self)
        return self._bitsets

    def candidate_mask(self, birth_edge: str) -> int:
        """Bitset of the forward edges control compatible with ``birth_edge``
        (see :meth:`control_compatible`); 0 for a back edge."""
        position = self._edge_pos.get(birth_edge)
        if position is None:
            return 0
        dom, pdom = self._dominator_masks()
        return dom[position] | pdom[position]

    @property
    def forward_edge_names(self) -> List[str]:
        """Forward edges in topological order."""
        return list(self._forward_edges_ordered())

    def first_edge(self) -> str:
        """The first forward edge in topological order."""
        return self.forward_edge_names[0]

    def last_edge(self) -> str:
        """The last forward edge in topological order."""
        return self.forward_edge_names[-1]
