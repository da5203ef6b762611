"""Graphviz (DOT) exporters for CFG and DFG.

These are debugging/visualisation aids only; nothing in the flows depends on
them.  The output is valid DOT text that can be rendered with ``dot -Tpdf``.
"""

from __future__ import annotations

from repro.ir.cfg import CFG, NodeKind
from repro.ir.dfg import DFG


_NODE_SHAPES = {
    NodeKind.START: "doublecircle",
    NodeKind.STATE: "circle",
    NodeKind.BRANCH: "diamond",
    NodeKind.MERGE: "invtriangle",
    NodeKind.PLAIN: "point",
    NodeKind.EXIT: "doubleoctagon",
}


def _quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def cfg_to_dot(cfg: CFG) -> str:
    """Render a CFG as DOT text.

    State nodes are drawn as filled circles (matching the shaded circles of
    the paper's Fig. 4), back edges as dashed arrows.
    """
    lines = [f"digraph {_quote(cfg.name)} {{", "  rankdir=TB;"]
    for node in cfg.nodes:
        shape = _NODE_SHAPES.get(node.kind, "ellipse")
        style = 'style=filled, fillcolor=gray80, ' if node.is_state else ""
        lines.append(f"  {_quote(node.name)} [{style}shape={shape}];")
    cfg.classify_backward_edges()
    for edge in cfg.edges:
        style = "dashed" if edge.backward else "solid"
        label = edge.name
        if edge.condition is not None:
            label += f" [{edge.condition}]"
        lines.append(
            f"  {_quote(edge.src)} -> {_quote(edge.dst)} "
            f"[label={_quote(label)}, style={style}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def dfg_to_dot(dfg: DFG) -> str:
    """Render a DFG as DOT text."""
    lines = [f"digraph {_quote(dfg.name)} {{", "  rankdir=TB;"]
    for op in dfg.operations:
        lines.append(
            f"  {_quote(op.name)} [label={_quote(f'{op.kind.value}:{op.name}')}];"
        )
    for edge in dfg.edges:
        if edge.backward:
            # Loop-carried dependence: dashed, labelled with its iteration
            # distance (the [d] annotations of classic modulo-scheduling
            # dependence graphs).
            lines.append(
                f"  {_quote(edge.src)} -> {_quote(edge.dst)} "
                f"[style=dashed, label={_quote(f'd={edge.distance}')}];"
            )
        else:
            lines.append(
                f"  {_quote(edge.src)} -> {_quote(edge.dst)} [style=solid];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
