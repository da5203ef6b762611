"""Unit tests for IR transforms (loop unrolling)."""

import pytest

from repro.errors import IRError
from repro.ir import LinearDesignBuilder, OpKind
from repro.ir.transforms import unroll_loop
from repro.ir.validate import validate_design
from repro.workloads.resizer import resizer_design


# -- loop unrolling ------------------------------------------------------------------


def accumulator_design(num_states=2, distance=1):
    """in -> add (accumulating its own output from `distance` iterations ago)."""
    builder = LinearDesignBuilder("acc", num_states)
    a = builder.read("a", "e1", width=8)
    acc = builder.binary(OpKind.ADD, a.name, a.name, "e1", width=8, name="acc")
    builder.loop_carry(acc.name, acc.name, dst_port=1, distance=distance)
    builder.write("out", f"e{num_states}", acc.name, width=8)
    return builder.build()


def test_unroll_copies_states_ops_and_forward_edges_per_iteration():
    design = accumulator_design(num_states=2)
    unrolled = unroll_loop(design, 3)
    assert unrolled.attrs["unrolled_from"] == "acc"
    assert unrolled.attrs["unroll_factor"] == 3
    assert len(unrolled.cfg.state_nodes) == 3 * len(design.cfg.state_nodes)
    assert unrolled.dfg.num_operations == 3 * design.dfg.num_operations
    for iteration in range(3):
        assert unrolled.dfg.has_op(f"acc@{iteration}")
    # The expansion is acyclic: no backward DFG edges remain.
    assert unrolled.dfg.backward_edges == []
    assert validate_design(unrolled) == []


def test_unroll_materialises_carried_edges_as_forward_edges():
    design = accumulator_design(num_states=2, distance=2)
    unrolled = unroll_loop(design, 5)
    carried = [(e.src, e.dst) for e in unrolled.dfg.forward_edges
               if e.src.startswith("acc@") and e.dst.startswith("acc@")]
    # distance=2: acc@i consumes acc@(i-2) for i >= 2 only.
    assert sorted(carried) == [("acc@0", "acc@2"), ("acc@1", "acc@3"),
                               ("acc@2", "acc@4")]


def test_unroll_suffixes_io_ports_per_iteration():
    design = accumulator_design()
    unrolled = unroll_loop(design, 2)
    ports = {op.attrs["port"] for op in unrolled.dfg.operations
             if "port" in op.attrs}
    assert ports == {"a@0", "a@1", "out@0", "out@1"}


def test_unroll_factor_one_is_an_isomorphic_rename():
    design = accumulator_design(num_states=3)
    unrolled = unroll_loop(design, 1)
    assert unrolled.dfg.num_operations == design.dfg.num_operations
    assert len(unrolled.cfg.state_nodes) == len(design.cfg.state_nodes)
    # The single carried edge has no in-range source iteration and drops.
    assert unrolled.dfg.backward_edges == []


def test_unroll_rejects_bad_factor_and_branchy_loops():
    with pytest.raises(IRError, match=">= 1"):
        unroll_loop(accumulator_design(), 0)
    branchy = resizer_design()
    with pytest.raises(IRError, match="straight-line"):
        unroll_loop(branchy, 2)
