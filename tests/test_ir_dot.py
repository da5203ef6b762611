"""Unit tests for the DOT exporters."""

from repro.ir.dot import cfg_to_dot, dfg_to_dot


def test_cfg_dot_contains_nodes_edges_and_backedge_style(resizer_full):
    text = cfg_to_dot(resizer_full.cfg)
    assert text.startswith("digraph")
    assert '"s0"' in text and '"s1"' in text and '"s2"' in text
    assert "style=dashed" in text            # the loop back edge
    assert 'label="e1"' in text


def test_dfg_dot_lists_all_operations(resizer_full):
    text = dfg_to_dot(resizer_full.dfg)
    for name in ("rd_a", "add", "div", "mul", "mux", "wr"):
        assert f'"{name}"' in text


def test_cfg_dot_dashes_every_back_edge_of_a_nested_loop():
    from repro.ir.cfg import CFG, NodeKind

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
    text = cfg_to_dot(cfg)
    assert '"s1" -> "h2" [label="inner_back", style=dashed];' in text
    assert '"s2" -> "h1" [label="outer_back", style=dashed];' in text
    assert '"h1" -> "h2" [label="e2", style=solid];' in text


def test_dfg_dot_labels_carried_edges_with_their_distance():
    from repro.ir import LinearDesignBuilder, OpKind

    builder = LinearDesignBuilder("carried", 2)
    a = builder.read("a", "e1", width=8)
    acc = builder.binary(OpKind.ADD, a.name, a.name, "e1", width=8, name="acc")
    builder.loop_carry(acc.name, acc.name, dst_port=1, distance=2)
    builder.write("out", "e2", acc.name, width=8)
    text = dfg_to_dot(builder.dfg)
    assert '"acc" -> "acc" [style=dashed, label="d=2"];' in text
    assert 'style=solid' in text
