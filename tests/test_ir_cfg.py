"""Unit tests for repro.ir.cfg."""

import pytest

from repro.errors import IRError
from repro.ir.cfg import CFG, NodeKind


def make_diamond():
    """start -e1-> branch -e2/e3-> (s0|s1) -e4/e5-> merge -e6-> s2 -e7-> bottom."""
    cfg = CFG("diamond")
    cfg.add_node("start", NodeKind.START)
    cfg.add_node("branch", NodeKind.BRANCH)
    cfg.add_node("s0", NodeKind.STATE)
    cfg.add_node("s1", NodeKind.STATE)
    cfg.add_node("merge", NodeKind.MERGE)
    cfg.add_node("s2", NodeKind.STATE)
    cfg.add_node("bottom", NodeKind.PLAIN)
    cfg.add_edge("e1", "start", "branch")
    cfg.add_edge("e2", "branch", "s0")
    cfg.add_edge("e3", "branch", "s1")
    cfg.add_edge("e4", "s0", "merge")
    cfg.add_edge("e5", "s1", "merge")
    cfg.add_edge("e6", "merge", "s2")
    cfg.add_edge("e7", "s2", "bottom")
    cfg.add_edge("e8", "bottom", "start")
    return cfg


def test_duplicate_node_and_edge_names_rejected():
    cfg = CFG()
    cfg.add_node("a", NodeKind.START)
    with pytest.raises(IRError):
        cfg.add_node("a")
    cfg.add_node("b")
    cfg.add_edge("e", "a", "b")
    with pytest.raises(IRError):
        cfg.add_edge("e", "a", "b")


def test_edge_with_unknown_endpoint_rejected():
    cfg = CFG()
    cfg.add_node("a", NodeKind.START)
    with pytest.raises(IRError):
        cfg.add_edge("e", "a", "missing")


def test_single_start_node_enforced():
    cfg = CFG()
    cfg.add_node("a", NodeKind.START)
    with pytest.raises(IRError):
        cfg.add_node("b", NodeKind.START)


def test_backward_edge_classification():
    cfg = make_diamond()
    cfg.classify_backward_edges()
    backward = {e.name for e in cfg.backward_edges}
    assert backward == {"e8"}
    assert {e.name for e in cfg.forward_edges} == {f"e{i}" for i in range(1, 8)}


def test_forced_backward_flag_is_preserved():
    cfg = CFG()
    cfg.add_node("a", NodeKind.START)
    cfg.add_node("b", NodeKind.STATE)
    cfg.add_edge("fwd", "a", "b")
    cfg.add_edge("back", "b", "a", backward=True)
    cfg.classify_backward_edges()
    assert cfg.edge("back").backward
    assert not cfg.edge("fwd").backward


def test_state_nodes_listed():
    cfg = make_diamond()
    assert sorted(cfg.state_nodes) == ["s0", "s1", "s2"]


def test_topological_nodes_respects_forward_edges():
    cfg = make_diamond()
    order = cfg.topological_nodes()
    assert order.index("start") < order.index("branch")
    assert order.index("branch") < order.index("merge")
    assert order.index("merge") < order.index("s2")
    assert len(order) == cfg.num_nodes


def test_topological_edges_orders_by_reachability():
    cfg = make_diamond()
    order = cfg.topological_edges()
    assert order.index("e1") < order.index("e2")
    assert order.index("e2") < order.index("e6")
    assert order.index("e6") < order.index("e7")
    assert "e8" not in order  # backward edges are excluded


def test_successors_and_predecessors():
    cfg = make_diamond()
    assert set(cfg.successors("branch")) == {"s0", "s1"}
    assert set(cfg.predecessors("merge")) == {"s0", "s1"}
    assert cfg.successors("bottom") == ["start"]
    assert cfg.successors("bottom", forward_only=True) == []


def test_copy_preserves_structure():
    cfg = make_diamond()
    clone = cfg.copy()
    assert clone.num_nodes == cfg.num_nodes
    assert clone.num_edges == cfg.num_edges
    assert {e.name for e in clone.backward_edges} == {"e8"}


def test_cyclic_forward_subgraph_rejected():
    cfg = CFG()
    cfg.add_node("a", NodeKind.START)
    cfg.add_node("b", NodeKind.STATE)
    cfg.add_node("c", NodeKind.STATE)
    cfg.add_edge("e1", "a", "b")
    cfg.add_edge("e2", "b", "c", backward=False)
    # Force both cycle edges forward so the classification cannot fix it.
    cfg.add_edge("e3", "c", "b", backward=False)
    with pytest.raises(IRError):
        cfg.topological_nodes()


def make_nested():
    """Two nested natural loops: inner s1->h2, outer s2->h1."""
    cfg = CFG("nested")
    cfg.add_node("start", NodeKind.START)
    for name in ("h1", "h2", "s1", "s2"):
        cfg.add_node(name, NodeKind.STATE)
    cfg.add_edge("e1", "start", "h1")
    cfg.add_edge("e2", "h1", "h2")
    cfg.add_edge("e3", "h2", "s1")
    cfg.add_edge("inner_back", "s1", "h2")
    cfg.add_edge("e4", "s1", "s2")
    cfg.add_edge("outer_back", "s2", "h1")
    return cfg


def test_nested_loops_classify_both_back_edges():
    cfg = make_nested()
    cfg.classify_backward_edges()
    assert {e.name for e in cfg.backward_edges} == {"inner_back", "outer_back"}
    # The forward subgraph is acyclic, so orderings work.
    order = cfg.topological_nodes()
    assert order.index("h1") < order.index("h2") < order.index("s2")


def test_irreducible_two_entry_cycle_still_classifies_and_orders():
    """Two entries into the x<->y cycle (irreducible in the classic sense):
    DFS order decides the single back edge and the forward subgraph stays
    acyclic, pinned here so a rewrite cannot silently change it."""
    cfg = CFG("irr")
    cfg.add_node("start", NodeKind.START)
    cfg.add_node("x", NodeKind.STATE)
    cfg.add_node("y", NodeKind.STATE)
    cfg.add_edge("a", "start", "x")
    cfg.add_edge("b", "start", "y")   # second entry into the cycle
    cfg.add_edge("c", "x", "y")
    cfg.add_edge("d", "y", "x")
    cfg.classify_backward_edges()
    assert {e.name for e in cfg.backward_edges} == {"d"}
    assert cfg.topological_nodes() == ["start", "x", "y"]


def test_unknown_lookups_raise():
    cfg = make_diamond()
    with pytest.raises(IRError):
        cfg.node("nope")
    with pytest.raises(IRError):
        cfg.edge("nope")
    with pytest.raises(IRError):
        cfg.out_edges("nope")
