"""Control-flow graph (CFG).

Follows Definition 1 of the paper: a CFG is a directed graph with a unique
start node and a distinguished subset of *state* nodes.  Non-state nodes only
fork/join control flow.  Edges are classified into *forward* and *backward*
edges; backward edges go from a node to one of its depth-first-search
ancestors (loop back edges) and are excluded from timing analysis.

Nodes and edges are addressed by their (unique) string names, which keeps the
data structure serialisable and makes test fixtures readable (``"e1"``,
``"s0"`` ... exactly as in the paper's figures).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import IRError


class NodeKind(enum.Enum):
    """CFG node kinds."""

    START = "start"      # unique entry node
    STATE = "state"      # a wait() call: clock-cycle boundary
    BRANCH = "branch"    # control-flow fork (if/switch)
    MERGE = "merge"      # control-flow join
    PLAIN = "plain"      # structural node with a single in/out edge
    EXIT = "exit"        # process exit (rare: while(true) processes never exit)

    def __str__(self):  # pragma: no cover - cosmetic
        return self.value


@dataclass
class CFGNode:
    """A CFG node."""

    name: str
    kind: NodeKind = NodeKind.PLAIN
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def is_state(self) -> bool:
        return self.kind is NodeKind.STATE

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"CFGNode({self.name}, {self.kind.value})"


@dataclass
class CFGEdge:
    """A CFG edge ``src -> dst``.

    ``backward`` marks loop back edges (from DFS ancestors); they are ignored
    by the timed DFG construction.  ``condition`` optionally labels the edge
    with the branch condition value it corresponds to (used by the datapath
    FSM generator).
    """

    name: str
    src: str
    dst: str
    backward: bool = False
    condition: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    def __repr__(self):  # pragma: no cover - cosmetic
        arrow = "~>" if self.backward else "->"
        return f"CFGEdge({self.name}: {self.src} {arrow} {self.dst})"


class CFG:
    """A control-flow graph with named nodes and edges.

    The graph is built incrementally with :meth:`add_node` and
    :meth:`add_edge`.  Once construction is finished, call
    :meth:`classify_backward_edges` (done automatically by the first query
    that needs it) to mark loop back edges.
    """

    def __init__(self, name: str = "cfg"):
        self.name = name
        self._nodes: Dict[str, CFGNode] = {}
        self._edges: Dict[str, CFGEdge] = {}
        self._out: Dict[str, List[str]] = {}
        self._in: Dict[str, List[str]] = {}
        self._start: Optional[str] = None
        self._backward_classified = False

    # -- construction -----------------------------------------------------------

    def add_node(self, name: str, kind: NodeKind = NodeKind.PLAIN, **attrs) -> CFGNode:
        """Add a node; the first START node becomes the entry node."""
        if name in self._nodes:
            raise IRError(f"duplicate CFG node name: {name!r}")
        node = CFGNode(name=name, kind=kind, attrs=dict(attrs))
        self._nodes[name] = node
        self._out[name] = []
        self._in[name] = []
        if kind is NodeKind.START:
            if self._start is not None:
                raise IRError("CFG already has a start node")
            self._start = name
        self._backward_classified = False
        return node

    def add_edge(
        self,
        name: str,
        src: str,
        dst: str,
        backward: Optional[bool] = None,
        condition: Optional[str] = None,
        **attrs,
    ) -> CFGEdge:
        """Add a directed edge ``src -> dst``.

        ``backward`` may be forced explicitly (useful when constructing the
        paper's figures verbatim); when left ``None`` it is derived by
        :meth:`classify_backward_edges`.
        """
        if name in self._edges:
            raise IRError(f"duplicate CFG edge name: {name!r}")
        for endpoint in (src, dst):
            if endpoint not in self._nodes:
                raise IRError(f"CFG edge {name!r} references unknown node {endpoint!r}")
        edge = CFGEdge(
            name=name,
            src=src,
            dst=dst,
            backward=bool(backward) if backward is not None else False,
            condition=condition,
            attrs=dict(attrs),
        )
        if backward is not None:
            edge.attrs["backward_forced"] = True
        self._edges[name] = edge
        self._out[src].append(name)
        self._in[dst].append(name)
        self._backward_classified = False
        return edge

    # -- basic accessors --------------------------------------------------------

    @property
    def start(self) -> str:
        """Name of the unique start node."""
        if self._start is None:
            raise IRError("CFG has no start node")
        return self._start

    def node(self, name: str) -> CFGNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise IRError(f"unknown CFG node: {name!r}") from None

    def edge(self, name: str) -> CFGEdge:
        try:
            return self._edges[name]
        except KeyError:
            raise IRError(f"unknown CFG edge: {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def has_edge(self, name: str) -> bool:
        return name in self._edges

    @property
    def nodes(self) -> List[CFGNode]:
        return list(self._nodes.values())

    @property
    def edges(self) -> List[CFGEdge]:
        return list(self._edges.values())

    @property
    def node_names(self) -> List[str]:
        return list(self._nodes)

    @property
    def edge_names(self) -> List[str]:
        return list(self._edges)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def state_nodes(self) -> List[str]:
        """Names of all state (wait) nodes."""
        return [n.name for n in self._nodes.values() if n.is_state]

    def out_edges(self, node: str, forward_only: bool = False) -> List[CFGEdge]:
        self._require_node(node)
        edges = [self._edges[e] for e in self._out[node]]
        if forward_only:
            self.classify_backward_edges()
            edges = [e for e in edges if not e.backward]
        return edges

    def in_edges(self, node: str, forward_only: bool = False) -> List[CFGEdge]:
        self._require_node(node)
        edges = [self._edges[e] for e in self._in[node]]
        if forward_only:
            self.classify_backward_edges()
            edges = [e for e in edges if not e.backward]
        return edges

    def successors(self, node: str, forward_only: bool = False) -> List[str]:
        return [e.dst for e in self.out_edges(node, forward_only=forward_only)]

    def predecessors(self, node: str, forward_only: bool = False) -> List[str]:
        return [e.src for e in self.in_edges(node, forward_only=forward_only)]

    def _require_node(self, name: str) -> None:
        if name not in self._nodes:
            raise IRError(f"unknown CFG node: {name!r}")

    # -- backward-edge classification -------------------------------------------

    def classify_backward_edges(self) -> None:
        """Mark loop back edges.

        Uses an iterative depth-first traversal from the start node; an edge
        whose destination is currently on the DFS stack is a back edge
        (Muchnick's definition, as referenced by the paper).  Edges whose
        ``backward`` flag was forced at construction time are left untouched.
        """
        if self._backward_classified:
            return
        if self._start is None:
            # A CFG fragment without a start node: leave flags as constructed.
            self._backward_classified = True
            return

        color: Dict[str, int] = {name: 0 for name in self._nodes}  # 0=white,1=grey,2=black
        stack: List[Tuple[str, Iterator[str]]] = []

        def iter_out(n: str) -> Iterator[str]:
            return iter(list(self._out[n]))

        start = self._start
        color[start] = 1
        stack.append((start, iter_out(start)))
        while stack:
            node, it = stack[-1]
            advanced = False
            for edge_name in it:
                edge = self._edges[edge_name]
                if edge.attrs.get("backward_forced"):
                    continue
                dst = edge.dst
                if color[dst] == 1:
                    edge.backward = True
                else:
                    edge.backward = False
                    if color[dst] == 0:
                        color[dst] = 1
                        stack.append((dst, iter_out(dst)))
                        advanced = True
                        break
            if not advanced:
                color[node] = 2
                stack.pop()
        self._backward_classified = True

    @property
    def forward_edges(self) -> List[CFGEdge]:
        """All edges that are not loop back edges."""
        self.classify_backward_edges()
        return [e for e in self._edges.values() if not e.backward]

    @property
    def backward_edges(self) -> List[CFGEdge]:
        self.classify_backward_edges()
        return [e for e in self._edges.values() if e.backward]

    # -- orderings and reachability ---------------------------------------------

    def topological_nodes(self) -> List[str]:
        """Topological order of the nodes over forward edges only.

        Raises :class:`IRError` if the forward subgraph has a cycle, which
        indicates a malformed CFG (every cycle must contain a backward edge).
        """
        self.classify_backward_edges()
        indeg: Dict[str, int] = {name: 0 for name in self._nodes}
        for edge in self.forward_edges:
            indeg[edge.dst] += 1
        ready = [name for name, deg in indeg.items() if deg == 0]
        # Stable order: keep insertion order among ready nodes.
        order: List[str] = []
        ready.sort(key=self._insertion_index_node)
        while ready:
            node = ready.pop(0)
            order.append(node)
            newly_ready = []
            for edge in self.out_edges(node, forward_only=True):
                indeg[edge.dst] -= 1
                if indeg[edge.dst] == 0:
                    newly_ready.append(edge.dst)
            newly_ready.sort(key=self._insertion_index_node)
            ready.extend(newly_ready)
            ready.sort(key=self._insertion_index_node)
        if len(order) != len(self._nodes):
            raise IRError(
                "forward CFG subgraph is cyclic; every loop must contain a "
                "backward edge"
            )
        return order

    def topological_edges(self) -> List[str]:
        """Topological order of forward edges.

        Edge ``a`` precedes edge ``b`` whenever ``b`` is forward reachable
        from ``a``.  This is the visiting order used by the schedulers
        (``Esort`` in the paper's Fig. 8).
        """
        node_pos = {n: i for i, n in enumerate(self.topological_nodes())}
        forward = self.forward_edges
        forward.sort(key=lambda e: (node_pos[e.src], node_pos[e.dst],
                                    self._insertion_index_edge(e.name)))
        return [e.name for e in forward]

    def _insertion_index_node(self, name: str) -> int:
        return list(self._nodes).index(name)

    def _insertion_index_edge(self, name: str) -> int:
        return list(self._edges).index(name)

    def forward_reachable_nodes(self, node: str) -> Set[str]:
        """All nodes reachable from ``node`` via forward edges (inclusive)."""
        self._require_node(node)
        self.classify_backward_edges()
        seen = {node}
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for edge in self.out_edges(current, forward_only=True):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    frontier.append(edge.dst)
        return seen

    # -- misc --------------------------------------------------------------------

    def copy(self) -> "CFG":
        """Deep-ish copy (nodes/edges are recreated; attrs are shallow-copied)."""
        clone = CFG(self.name)
        for node in self._nodes.values():
            clone.add_node(node.name, node.kind, **dict(node.attrs))
        for edge in self._edges.values():
            forced = edge.attrs.get("backward_forced")
            clone.add_edge(
                edge.name,
                edge.src,
                edge.dst,
                backward=edge.backward if forced else None,
                condition=edge.condition,
                **{k: v for k, v in edge.attrs.items() if k != "backward_forced"},
            )
        return clone

    def __contains__(self, name: str) -> bool:
        return name in self._nodes or name in self._edges

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"CFG({self.name}: {len(self._nodes)} nodes, {len(self._edges)} edges, "
            f"{len(self.state_nodes)} states)"
        )
