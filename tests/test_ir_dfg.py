"""Unit tests for repro.ir.dfg."""

import pytest

from repro.errors import IRError
from repro.ir.dfg import DFG
from repro.ir.operations import OpKind


def make_chain():
    dfg = DFG("chain")
    dfg.add_op("a", OpKind.READ, width=8)
    dfg.add_op("b", OpKind.ADD, width=8)
    dfg.add_op("c", OpKind.MUL, width=8)
    dfg.add_op("d", OpKind.WRITE, width=8, operand_widths=(8,))
    dfg.connect("a", "b", 0)
    dfg.connect("b", "c", 0)
    dfg.connect("c", "d", 0)
    return dfg


def test_duplicate_operation_rejected():
    dfg = DFG()
    dfg.add_op("a", OpKind.ADD)
    with pytest.raises(IRError):
        dfg.add_op("a", OpKind.SUB)


def test_connect_unknown_operation_rejected():
    dfg = DFG()
    dfg.add_op("a", OpKind.ADD)
    with pytest.raises(IRError):
        dfg.connect("a", "missing")


def test_successors_and_predecessors():
    dfg = make_chain()
    assert dfg.successors("a") == ["b"]
    assert dfg.predecessors("c") == ["b"]
    assert dfg.sources() == ["a"]
    assert dfg.sinks() == ["d"]


def test_topological_order_is_consistent():
    dfg = make_chain()
    order = dfg.topological_order()
    assert order.index("a") < order.index("b") < order.index("c") < order.index("d")


def test_backward_edges_do_not_create_cycles():
    dfg = make_chain()
    dfg.connect("c", "a", backward=True)
    order = dfg.topological_order()  # must not raise
    assert len(order) == 4
    assert dfg.predecessors("a") == []  # forward view ignores backward edges
    assert dfg.predecessors("a", forward_only=False) == ["c"]


def test_forward_cycle_rejected():
    dfg = DFG()
    dfg.add_op("a", OpKind.ADD)
    dfg.add_op("b", OpKind.ADD)
    dfg.connect("a", "b")
    dfg.connect("b", "a")
    with pytest.raises(IRError):
        dfg.topological_order()


def test_count_by_kind_and_synthesizable():
    dfg = make_chain()
    counts = dfg.count_by_kind()
    assert counts[OpKind.ADD] == 1
    assert counts[OpKind.READ] == 1
    names = {op.name for op in dfg.operations if op.is_synthesizable}
    assert names == {"b", "c"}


def test_copy_is_deep_for_structure():
    dfg = make_chain()
    clone = dfg.copy()
    clone.add_op("e", OpKind.ADD, width=8)
    clone.connect("b", "e", 0)
    assert not dfg.has_op("e")
    assert clone.num_operations == 5
    assert dfg.num_operations == 4
    assert [e.dst for e in dfg.edges if e.src == "b"] == ["c"]
