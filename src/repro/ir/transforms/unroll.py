"""Loop unrolling: materialise ``factor`` iterations of a straight-line loop.

:func:`unroll_loop` is the acyclic witness of modulo scheduling.  A
pipelined schedule of a cyclic design claims that iteration ``i`` may start
at ``i * II`` while respecting every loop-carried dependence; unrolling
expands ``k`` iterations into one long straight-line design in which each
carried edge ``src -(d)-> dst`` becomes the ordinary forward edge
``src@(i-d) -> dst@i``.  Scheduling questions about the cyclic design then
reduce to plain acyclic dependence checks on the expansion — which is what
the ``pipelined-vs-unrolled`` differential oracle exploits.

The transform is deliberately restricted to the straight-line loop shape
(START/STATE nodes only, single forward successor per node): that is the
only shape the modulo scheduler pipelines, and restricting here keeps the
iteration copies a pure chain concatenation with no control-flow cloning.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import IRError
from repro.ir.builder import DesignBuilder
from repro.ir.cfg import NodeKind
from repro.ir.design import Design


def _loop_chain(design: Design) -> Tuple[str, ...]:
    """The forward CFG edge names in chain order; raises off-shape."""
    cfg = design.cfg
    for node in cfg.nodes:
        if node.kind not in (NodeKind.START, NodeKind.STATE):
            raise IRError(
                f"unroll_loop handles straight-line loops only; CFG node "
                f"{node.name!r} has kind {node.kind.value!r}")
        forward = cfg.out_edges(node.name, forward_only=True)
        if len(forward) > 1:
            raise IRError(
                f"unroll_loop handles straight-line loops only; CFG node "
                f"{node.name!r} has {len(forward)} forward successors")
    chain = []
    current = cfg.start
    while True:
        forward = cfg.out_edges(current, forward_only=True)
        if not forward:
            break
        chain.append(forward[0].name)
        current = forward[0].dst
    if not chain:
        raise IRError(f"design {design.name!r} has no forward CFG edges")
    return tuple(chain)


def iteration_name(base: str, iteration: int) -> str:
    """The name of ``base``'s copy in iteration ``iteration``."""
    return f"{base}@{iteration}"


def unroll_loop(design: Design, factor: int) -> Design:
    """Expand ``factor`` iterations of a straight-line loop acyclically.

    Every CFG state/edge and every DFG operation is copied per iteration
    (``x`` becomes ``x@0 .. x@{factor-1}``) and the copies are chained into
    one long straight-line design.  Forward data edges stay within their
    iteration; a loop-carried edge of distance ``d`` materialises as the
    forward edge ``src@(i-d) -> dst@i`` for every ``i >= d`` (earlier
    iterations read the pre-loop value, which has no producer in the
    expansion and is simply dropped).  I/O port names are suffixed per
    iteration so reads and writes stay distinct.

    The result carries ``attrs["unrolled_from"]`` / ``attrs["unroll_factor"]``
    and is a valid acyclic design: its block schedule is the ground truth
    the pipelined-vs-unrolled oracle compares modulo schedules against.
    """
    if factor < 1:
        raise IRError(f"unroll factor must be >= 1, got {factor}")
    chain = _loop_chain(design)
    cfg = design.cfg

    builder = DesignBuilder(f"{design.name}_x{factor}")
    builder.clock_period = design.clock_period
    builder.allow_extra_states = design.allow_extra_states
    builder.start_node("start")
    previous = "start"
    edge_map: Dict[Tuple[str, int], str] = {}
    for iteration in range(factor):
        for edge_name in chain:
            edge = cfg.edge(edge_name)
            state = iteration_name(edge.dst, iteration)
            builder.state_node(state)
            new_edge = iteration_name(edge_name, iteration)
            builder.edge(previous, state, name=new_edge)
            edge_map[(edge_name, iteration)] = new_edge
            previous = state
    builder.edge(previous, "start", name="loop_back", backward=True)

    for iteration in range(factor):
        for op in design.dfg.operations:
            new = builder.op(
                op.kind,
                edge_map[(op.birth_edge, iteration)],
                name=iteration_name(op.name, iteration),
                width=op.width,
                operand_widths=op.operand_widths,
                fixed=op.fixed,
                value=op.value,
            )
            new.attrs.update(op.attrs)
            if "port" in new.attrs:
                new.attrs["port"] = iteration_name(str(new.attrs["port"]),
                                                   iteration)

    for iteration in range(factor):
        for edge in design.dfg.forward_edges:
            builder.dfg.connect(iteration_name(edge.src, iteration),
                                iteration_name(edge.dst, iteration),
                                dst_port=edge.dst_port)
        for edge in design.dfg.backward_edges:
            source = iteration - edge.distance
            if source >= 0:
                builder.dfg.connect(iteration_name(edge.src, source),
                                    iteration_name(edge.dst, iteration),
                                    dst_port=edge.dst_port)

    builder.attrs.update(design.attrs)
    builder.attrs["unrolled_from"] = design.name
    builder.attrs["unroll_factor"] = factor
    return builder.build()
