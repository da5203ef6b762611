"""The compact CSR graph substrate (repro.core.graphkit).

Two layers of guarantees:

* structural — interning, CSR adjacency, cached topological order and
  mutation invalidation of :class:`CompactTimedGraph` /
  :meth:`TimedDFG.compact`;
* behavioural — the array kernels are **exactly** equal (``==`` on every
  float) to the dict-based ``*_reference`` implementations.  The seeded
  sweep below drives :func:`kernel_vs_reference_problems` — the same
  predicate the ``graphkit-kernels`` verify oracle fuzzes on generated
  diamond-CFG scenarios — over 200 ``random_layered_design_seeded`` designs
  with mixed widths and wait-state counts, so any failure here shrinks to a
  tiny reproducer through the fuzzing machinery too.
"""

import pytest

from repro.errors import TimingError
from repro.core.delta_slack import DeltaSlackEvaluator
from repro.core.graphkit import (
    CompactTimedGraph,
    arrival_kernel,
    kernel_vs_reference_problems,
    required_kernel,
)
from repro.core.sequential_slack import (
    compute_sequential_slack,
    compute_sequential_slack_reference,
)
from repro.core.latency import LatencyAnalysis
from repro.core.opspan import SpanInfo
from repro.core.timed_dfg import TimedDFG, build_timed_dfg, timed_edge_weights
from repro.ir.operations import OpKind
from repro.lib.tsmc90 import tsmc90_library
from repro.rtl.timing import analyze_state_timing, analyze_state_timing_reference
from repro.flows import conventional_flow
from repro.workloads import (
    fir_design,
    random_layered_design_seeded,
    segmented_design,
)


@pytest.fixture(scope="module")
def library():
    return tsmc90_library()


def _delays_for(design, library):
    return {op.name: library.operation_delay(op)
            for op in design.dfg.operations if op.kind is not OpKind.CONST}


# -- structural ---------------------------------------------------------------------


def _diamond_timed():
    timed = TimedDFG("t")
    for node in ("a", "b", "c", "d"):
        timed.add_node(node)
    timed.add_edge("a", "b", 0)
    timed.add_edge("a", "c", 1)
    timed.add_edge("b", "d", 0)
    timed.add_edge("c", "d", 2)
    return timed


def test_interning_and_csr_layout():
    graph = CompactTimedGraph.from_timed(_diamond_timed())
    assert graph.names == ("a", "b", "c", "d")
    assert graph.index == {"a": 0, "b": 1, "c": 2, "d": 3}
    assert graph.num_nodes == 4 and graph.num_edges == 4
    # CSR successors of a: slots [0, 2) hold (b, 0) and (c, 1).
    assert list(graph.succ_indptr) == [0, 2, 3, 4, 4]
    assert list(graph.succ_dst[0:2]) == [1, 2]
    assert list(graph.succ_weight[0:2]) == [0, 1]
    # CSR predecessors of d: slots hold (b, 0) and (c, 2).
    lo, hi = graph.pred_indptr[3], graph.pred_indptr[4]
    assert sorted(zip(graph.pred_src[lo:hi], graph.pred_weight[lo:hi])) \
        == [(1, 0), (2, 2)]
    assert list(graph.topo) == [0, 1, 2, 3]


def test_compact_topological_order_matches_timed_dfg():
    timed = _diamond_timed()
    graph = timed.compact()
    assert [graph.names[i] for i in graph.topo] == timed.topological_order()


def test_compact_is_cached_and_invalidated_on_mutation():
    timed = _diamond_timed()
    first = timed.compact()
    assert timed.compact() is first
    timed.add_node("e")
    second = timed.compact()
    assert second is not first
    assert second.num_nodes == 5
    timed.add_edge("d", "e", 0)
    assert timed.compact() is not second


def test_cyclic_graph_raises_on_topo():
    timed = TimedDFG("cyclic")
    timed.add_node("a")
    timed.add_node("b")
    timed.add_edge("a", "b", 0)
    timed.add_edge("b", "a", 0)
    with pytest.raises(TimingError, match="cyclic"):
        timed.topological_order()
    with pytest.raises(TimingError, match="cyclic"):
        arrival_kernel(timed.compact(), [0.0, 0.0], 1000.0)


def test_duplicate_names_and_bad_edges_rejected():
    with pytest.raises(TimingError, match="unique"):
        CompactTimedGraph(("a", "a"), [])
    with pytest.raises(TimingError, match="unknown node"):
        CompactTimedGraph(("a",), [(0, 1, 0)])
    with pytest.raises(TimingError, match=">= 0"):
        CompactTimedGraph(("a", "b"), [(0, 1, -1)])


# -- reweighting -------------------------------------------------------------------


def test_reweighted_shares_structure_and_topological_order():
    base = _diamond_timed().compact()
    graph = base.reweighted([3, 0, 1, 2])
    for name in ("names", "index", "op_indices", "succ_indptr", "succ_dst",
                 "pred_indptr", "pred_src"):
        assert getattr(graph, name) is getattr(base, name)
    assert graph.topo is base.topo
    assert graph.topo_view() is base.topo_view()
    assert graph.topo_positions() is base.topo_positions()
    assert graph.pred_view()[:2] == base.pred_view()[:2]
    assert graph.pred_view()[0] is base.pred_view()[0]
    # The weights land in the slots a fresh build of the same edges uses.
    fresh = CompactTimedGraph(base.names, [(0, 1, 3), (0, 2, 0), (1, 3, 1),
                                           (2, 3, 2)])
    assert graph.succ_weight == fresh.succ_weight
    assert graph.pred_weight == fresh.pred_weight
    assert graph.succ_view() == fresh.succ_view()
    assert graph.pred_view() == fresh.pred_view()
    assert graph.bf_edge_order() == fresh.bf_edge_order()
    # Reweighting a reweighted graph still addresses the base's edge order.
    again = graph.reweighted([0, 1, 0, 2])
    assert again.succ_weight == base.succ_weight
    assert again.names is base.names


def test_reweighting_leaves_the_base_weights_unchanged():
    base = _diamond_timed().compact()
    DeltaSlackEvaluator(base, [100.0] * 4, 1000.0)  # fills the seed cache
    succ, pred = list(base.succ_weight), list(base.pred_weight)
    views = (list(base.succ_view()[2]), list(base.pred_view()[2]))
    graph = base.reweighted([5, 6, 7, 8])
    graph.succ_view()[2][0] = 99  # the new graph's lists are its own
    assert list(base.succ_weight) == succ and list(base.pred_weight) == pred
    assert (base.succ_view()[2], base.pred_view()[2]) == views
    assert graph._delta_seeds is None and base._delta_seeds


def test_reweighting_rejects_bad_weight_vectors():
    base = _diamond_timed().compact()
    with pytest.raises(TimingError, match="4 edge weights"):
        base.reweighted([0, 0, 0])
    with pytest.raises(TimingError, match=">= 0"):
        base.reweighted([0, -1, 0, 0])


class _SpanTable:
    """A stand-in span source: exactly the ``span(name)`` the weight rule reads."""

    def __init__(self, infos):
        self._infos = infos

    def span(self, name):
        return self._infos[name]


def _none_latency_spans(design, latency, broken):
    """Every operation on the last edge, except ``broken``: op -> (early, late)."""
    last = latency.forward_edge_names[-1]
    infos = {}
    for op in design.dfg.operations:
        early, late = broken.get(op.name, (last, last))
        infos[op.name] = SpanInfo(op=op.name, early=early, late=late,
                                  edges=(early,))
    return _SpanTable(infos)


@pytest.mark.parametrize("kind", ["data", "sink"])
def test_none_latency_raises_the_build_timed_dfg_message(kind):
    design = fir_design(taps=4, latency=4, clock_period=1500.0)
    latency = LatencyAnalysis(design.cfg)
    base = build_timed_dfg(design, latency=latency)
    src, dst = next(pair for pair in base.edge_pairs()
                    if not pair[1].startswith("__sink__"))
    first = latency.forward_edge_names[0]
    last = latency.forward_edge_names[-1]
    assert latency.latency(last, first) is None
    broken = ({dst: (first, first)} if kind == "data"
              else {src: (last, first)})
    spans = _none_latency_spans(design, latency, broken)
    with pytest.raises(TimingError) as built:
        build_timed_dfg(design, spans=spans, latency=latency)
    with pytest.raises(TimingError) as reweighted:
        base.compact().reweighted(
            timed_edge_weights(base.edge_pairs(), spans, latency))
    assert str(reweighted.value) == str(built.value)
    expected = ("not forward related" if kind == "data"
                else "late edge unreachable")
    assert expected in str(built.value)


def test_kernels_on_hand_built_graph(library):
    timed = _diamond_timed()
    graph = timed.compact()
    delays = {"a": 300.0, "b": 500.0, "c": 200.0, "d": 100.0}
    vec = graph.delay_vector(delays)
    assert vec == [300.0, 500.0, 200.0, 100.0]
    clock = 1000.0
    arrival, _ = arrival_kernel(graph, vec, clock)
    # a=0; b=a+300; c=a+300-1000*1; d=max(b+500, c+200-2000).
    assert arrival == [0.0, 300.0, -700.0, 800.0]
    required = required_kernel(graph, vec, clock)
    # d has no successors: T - delay(d).
    assert required[3] == clock - 100.0


# -- behavioural: 200 seeded designs, exact equality --------------------------------


_SEEDED_CASES = [
    (seed,
     2 + seed % 4,                       # layers
     3 + (seed * 7) % 5,                 # ops per layer
     2 + (seed * 3) % 6,                 # latency => wait states
     ((8, 16, 24, 32) if seed % 3 == 0 else
      (16, 32) if seed % 3 == 1 else None),   # mixed width profiles
     900.0 + 150.0 * (seed % 8))         # clock period
    for seed in range(200)
]


@pytest.mark.parametrize("chunk", range(8))
def test_kernels_exactly_match_reference_on_200_seeded_designs(
        chunk, library):
    """The acceptance sweep: kernels vs references, exact float equality,
    via the same predicate the graphkit-kernels verify oracle runs."""
    for seed, layers, ops, latency, widths, clock in \
            _SEEDED_CASES[chunk::8]:
        design, resolved = random_layered_design_seeded(
            seed=seed, layers=layers, ops_per_layer=ops, latency=latency,
            clock_period=clock, width_choices=widths)
        assert resolved == seed
        timed = build_timed_dfg(design)
        problems = kernel_vs_reference_problems(
            timed, _delays_for(design, library), clock)
        assert not problems, (seed, problems[:3])


def test_kernel_matches_reference_with_partial_delay_map(library):
    """Missing delay entries default to 0.0 on both paths."""
    design, _ = random_layered_design_seeded(seed=5, layers=3,
                                             ops_per_layer=5, latency=4)
    timed = build_timed_dfg(design)
    delays = _delays_for(design, library)
    pruned = {name: value for index, (name, value)
              in enumerate(sorted(delays.items())) if index % 2 == 0}
    assert not kernel_vs_reference_problems(timed, pruned, 1500.0)
    fast = compute_sequential_slack(timed, pruned, 1500.0, aligned=True)
    slow = compute_sequential_slack_reference(timed, pruned, 1500.0,
                                              aligned=True)
    assert list(fast.slack) == list(slow.slack)  # key order preserved too


def test_state_timing_kernel_matches_reference_on_segmented_design(library):
    design = segmented_design(
        segments=[
            ("linear", (("add", 0, 1), ("mul", 1, 2))),
            ("diamond", (("sub", 0, 1),), (("add", 1, 2),),
             (("mul", 0, 3),), (("add", 2, 4),)),
            ("linear", (("xor", 1, 5),)),
        ],
        inputs=(16, 16, 8),
        outputs=2,
        tail_states=1,
        clock_period=2000.0,
    )
    flow = conventional_flow(design, library, clock_period=2000.0)
    kernel = analyze_state_timing(flow.datapath)
    reference = analyze_state_timing_reference(flow.datapath)
    assert kernel.op_start == reference.op_start
    assert kernel.op_finish == reference.op_finish
    assert kernel.op_slack == reference.op_slack
    assert kernel.state_critical_path == reference.state_critical_path
