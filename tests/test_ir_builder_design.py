"""Unit tests for the builder API, Design container and validation."""

import pytest

from repro.errors import IRError
from repro.ir import DesignBuilder, LinearDesignBuilder, NodeKind, OpKind
from repro.ir.validate import validate_cfg, validate_design, validate_dfg


def test_linear_builder_skeleton():
    builder = LinearDesignBuilder("lin", 3)
    assert builder.edge_names == ["e1", "e2", "e3"]
    assert builder.edge_for_step(2) == "e2"
    design = builder.build()
    assert design.num_states == 3
    assert {e.name for e in design.cfg.backward_edges} == {"loop_back"}


def test_linear_builder_rejects_bad_steps():
    builder = LinearDesignBuilder("lin", 2)
    with pytest.raises(IRError):
        builder.edge_for_step(0)
    with pytest.raises(IRError):
        builder.edge_for_step(3)


def test_builder_op_requires_existing_birth_edge():
    builder = LinearDesignBuilder("lin", 1)
    with pytest.raises(IRError):
        builder.op(OpKind.ADD, "nope")


def test_builder_wires_inputs_in_port_order():
    builder = LinearDesignBuilder("lin", 1)
    a = builder.read("a", "e1", width=8)
    b = builder.read("b", "e1", width=8)
    add = builder.binary(OpKind.ADD, a.name, b.name, "e1", width=8)
    edges = builder.dfg.in_edges(add.name)
    assert sorted((e.src, e.dst_port) for e in edges) == [(a.name, 0), (b.name, 1)]


def test_builder_unique_names():
    builder = DesignBuilder("x")
    names = {builder.unique("op") for _ in range(10)}
    assert len(names) == 10


def test_design_summary_and_birth_map(interpolation):
    summary = interpolation.summary()
    assert summary["operations"] == interpolation.dfg.num_operations
    assert summary["states"] == 3
    assert interpolation.dfg.op("write_x").birth_edge == "e3"
    assert all(interpolation.cfg.has_edge(op.birth_edge)
               for op in interpolation.dfg.operations)


def test_design_copy_is_independent(interpolation):
    clone = interpolation.copy(name="clone")
    clone.dfg.add_op("extra", OpKind.ADD)
    assert clone.dfg.has_op("extra")
    assert not interpolation.dfg.has_op("extra")
    assert clone.name == "clone"


def test_validate_design_passes_on_workloads(interpolation, resizer_full, small_fir):
    for design in (interpolation, resizer_full, small_fir):
        validate_design(design)  # must not raise


def test_validate_rejects_birth_on_backward_edge():
    builder = LinearDesignBuilder("bad", 2)
    design = builder.build()
    design.dfg.add_op("x", OpKind.ADD, birth_edge="loop_back")
    with pytest.raises(IRError):
        validate_design(design)


def test_validate_rejects_unknown_birth_edge():
    builder = LinearDesignBuilder("bad", 1)
    design = builder.build()
    design.dfg.add_op("x", OpKind.ADD, birth_edge="does_not_exist")
    with pytest.raises(IRError):
        validate_design(design)


def test_validate_rejects_const_without_value():
    builder = LinearDesignBuilder("bad", 1)
    builder.dfg.add_op("c", OpKind.CONST, birth_edge="e1")
    with pytest.raises(IRError):
        validate_dfg(builder.dfg)


def test_validate_rejects_bad_clock_and_ii(interpolation):
    clone = interpolation.copy()
    clone.clock_period = -1.0
    with pytest.raises(IRError):
        validate_design(clone)
    clone = interpolation.copy()
    clone.pipeline_ii = 0
    with pytest.raises(IRError):
        validate_design(clone)


def test_validate_cfg_reports_unreachable_nodes():
    builder = DesignBuilder("frag")
    builder.cfg.add_node("start", NodeKind.START)
    builder.cfg.add_node("island", NodeKind.STATE)
    builder.cfg.add_node("after", NodeKind.PLAIN)
    builder.cfg.add_edge("e1", "island", "after")
    with pytest.raises(IRError):
        validate_cfg(builder.cfg)
