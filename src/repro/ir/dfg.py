"""Data-flow graph (DFG).

Definition 2 of the paper: a directed graph whose vertices are operations and
whose edges represent data dependencies ("o2 depends on results produced by
o1").  Loop-carried dependencies are marked as *backward* data edges; they are
excluded when the DFG is made acyclic for the timed-DFG construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import IRError
from repro.ir.operations import Operation, OpKind


@dataclass
class DataEdge:
    """A data dependency ``src -> dst`` feeding operand ``dst_port`` of dst.

    ``backward`` marks loop-carried dependencies (the consumed value comes
    from an earlier loop iteration); the block-bounded timed-DFG construction
    drops them, exactly like CFG backward edges, while the pipelined (cyclic)
    construction keeps them with their iteration ``distance``.

    ``distance`` is the dependence distance in iterations: a forward edge
    always has distance 0 (same iteration); a backward edge has distance
    ``d >= 1``, meaning the consumer reads the value the producer computed
    ``d`` iterations earlier.  Because every DFG cycle must contain at least
    one backward edge (the forward subgraph stays acyclic), every cycle
    automatically has positive total distance — the legality condition for
    modulo scheduling.
    """

    src: str
    dst: str
    dst_port: int = 0
    backward: bool = False
    distance: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    def key(self) -> Tuple[str, str, int]:
        return (self.src, self.dst, self.dst_port)

    def __repr__(self):  # pragma: no cover - cosmetic
        arrow = f"~{self.distance}~>" if self.backward else "->"
        return f"DataEdge({self.src} {arrow} {self.dst}[{self.dst_port}])"


class DFG:
    """A data-flow graph of named operations."""

    def __init__(self, name: str = "dfg"):
        self.name = name
        self._ops: Dict[str, Operation] = {}
        self._edges: List[DataEdge] = []
        self._succ: Dict[str, List[DataEdge]] = {}
        self._pred: Dict[str, List[DataEdge]] = {}

    # -- construction -----------------------------------------------------------

    def add_operation(self, op: Operation) -> Operation:
        if op.name in self._ops:
            raise IRError(f"duplicate DFG operation name: {op.name!r}")
        self._ops[op.name] = op
        self._succ[op.name] = []
        self._pred[op.name] = []
        return op

    def add_op(
        self,
        name: str,
        kind: OpKind,
        width: int = 32,
        operand_widths: Tuple[int, ...] = (),
        birth_edge: Optional[str] = None,
        fixed: bool = False,
        value: Optional[int] = None,
        **attrs,
    ) -> Operation:
        """Convenience wrapper building the :class:`Operation` in place."""
        op = Operation(
            name=name,
            kind=kind,
            width=width,
            operand_widths=tuple(operand_widths),
            birth_edge=birth_edge,
            fixed=fixed,
            value=value,
            attrs=dict(attrs),
        )
        return self.add_operation(op)

    def connect(
        self,
        src: str,
        dst: str,
        dst_port: int = 0,
        backward: bool = False,
        distance: Optional[int] = None,
        **attrs,
    ) -> DataEdge:
        """Add a data dependency from ``src`` to ``dst``.

        ``distance`` defaults to 1 for backward (loop-carried) edges and 0
        for forward edges; a forward edge with a nonzero distance or a
        backward edge with distance < 1 is rejected.
        """
        for endpoint in (src, dst):
            if endpoint not in self._ops:
                raise IRError(f"DFG edge references unknown operation {endpoint!r}")
        if distance is None:
            distance = 1 if backward else 0
        distance = int(distance)
        if backward and distance < 1:
            raise IRError(
                f"loop-carried edge {src!r} -> {dst!r} needs distance >= 1, "
                f"got {distance}")
        if not backward and distance != 0:
            raise IRError(
                f"forward edge {src!r} -> {dst!r} must have distance 0, "
                f"got {distance}")
        edge = DataEdge(src=src, dst=dst, dst_port=dst_port, backward=backward,
                        distance=distance, attrs=dict(attrs))
        self._edges.append(edge)
        self._succ[src].append(edge)
        self._pred[dst].append(edge)
        return edge

    # -- accessors ----------------------------------------------------------------

    def op(self, name: str) -> Operation:
        try:
            return self._ops[name]
        except KeyError:
            raise IRError(f"unknown DFG operation: {name!r}") from None

    def has_op(self, name: str) -> bool:
        return name in self._ops

    @property
    def operations(self) -> List[Operation]:
        return list(self._ops.values())

    @property
    def edges(self) -> List[DataEdge]:
        return list(self._edges)

    @property
    def forward_edges(self) -> List[DataEdge]:
        return [e for e in self._edges if not e.backward]

    @property
    def backward_edges(self) -> List[DataEdge]:
        return [e for e in self._edges if e.backward]

    @property
    def num_operations(self) -> int:
        return len(self._ops)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def successors(self, name: str, forward_only: bool = True) -> List[str]:
        """Names of operations consuming the result of ``name``."""
        self._require(name)
        edges = self._succ[name]
        if forward_only:
            edges = [e for e in edges if not e.backward]
        return [e.dst for e in edges]

    def predecessors(self, name: str, forward_only: bool = True) -> List[str]:
        """Names of operations whose results feed ``name``."""
        self._require(name)
        edges = self._pred[name]
        if forward_only:
            edges = [e for e in edges if not e.backward]
        return [e.src for e in edges]

    def out_edges(self, name: str, forward_only: bool = True) -> List[DataEdge]:
        self._require(name)
        edges = self._succ[name]
        if forward_only:
            edges = [e for e in edges if not e.backward]
        return list(edges)

    def in_edges(self, name: str, forward_only: bool = True) -> List[DataEdge]:
        self._require(name)
        edges = self._pred[name]
        if forward_only:
            edges = [e for e in edges if not e.backward]
        return list(edges)

    def sources(self) -> List[str]:
        """Operations with no forward predecessors."""
        return [name for name in self._ops if not self.predecessors(name)]

    def sinks(self) -> List[str]:
        """Operations with no forward successors."""
        return [name for name in self._ops if not self.successors(name)]

    def _require(self, name: str) -> None:
        if name not in self._ops:
            raise IRError(f"unknown DFG operation: {name!r}")

    # -- orderings ----------------------------------------------------------------

    def topological_order(self) -> List[str]:
        """Topological order over forward data edges.

        Raises :class:`IRError` if the forward subgraph is cyclic (a true
        combinational loop, which is illegal).
        """
        indeg: Dict[str, int] = {name: 0 for name in self._ops}
        for edge in self.forward_edges:
            indeg[edge.dst] += 1
        order: List[str] = []
        ready = [name for name, deg in indeg.items() if deg == 0]
        position = {name: i for i, name in enumerate(self._ops)}
        ready.sort(key=position.__getitem__)
        while ready:
            current = ready.pop(0)
            order.append(current)
            fresh = []
            for edge in self.out_edges(current):
                indeg[edge.dst] -= 1
                if indeg[edge.dst] == 0:
                    fresh.append(edge.dst)
            fresh.sort(key=position.__getitem__)
            ready.extend(fresh)
            ready.sort(key=position.__getitem__)
        if len(order) != len(self._ops):
            raise IRError(
                "forward DFG subgraph is cyclic; loop-carried dependencies "
                "must be marked backward"
            )
        return order

    def count_by_kind(self) -> Dict[OpKind, int]:
        """Histogram of operation kinds (useful for allocation heuristics)."""
        counts: Dict[OpKind, int] = {}
        for op in self._ops.values():
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    # -- misc ----------------------------------------------------------------------

    def copy(self) -> "DFG":
        clone = DFG(self.name)
        for op in self._ops.values():
            clone.add_operation(
                Operation(
                    name=op.name,
                    kind=op.kind,
                    width=op.width,
                    operand_widths=tuple(op.operand_widths),
                    birth_edge=op.birth_edge,
                    fixed=op.fixed,
                    value=op.value,
                    attrs=dict(op.attrs),
                )
            )
        for edge in self._edges:
            clone.connect(edge.src, edge.dst, dst_port=edge.dst_port,
                          backward=edge.backward, distance=edge.distance,
                          **dict(edge.attrs))
        return clone

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"DFG({self.name}: {len(self._ops)} ops, {len(self._edges)} edges)"
