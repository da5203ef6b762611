"""Pins the modulo-II (cyclic) Bellman-Ford passes against a plain reference.

A cyclic timed DFG keeps the loop-carried edges of a pipelined design,
weighted ``distance * II + offset`` states, so its arrival and required
times are fixpoints of the per-edge relaxation rather than the result of
one topological sweep.  The reference below restates that relaxation on
name-keyed dicts: every node starts at arrival 0.0 (the base constraint
``Arr(v) >= 0``), sinks start at required ``T - delay``, edges are visited
in name order, alignment goes through ``aligned_start``/``aligned_required``,
and the thresholds are 1e-9 to relax and 1e-6 to verify.  The nodes a
verification sweep could still improve form the *improving* set, which is
empty exactly when the II sustains every recurrence.

The graphkit passes must reproduce the reference bit for bit, on cyclic
graphs where they converge and where they diverge.  The incremental slack
evaluator for cyclic graphs must answer like a fresh one after every edit,
and both pipelined flows on the interpolation design, whose recurrences set
RecMII, are pinned by digest.
"""

import hashlib
import json

import pytest

from repro.core.delta_slack import CyclicSlackEvaluator
from repro.core.graphkit import (
    bellman_ford_arrival as arrival_passes, bellman_ford_required as required_passes)
from repro.core.sequential_slack import aligned_required, aligned_start
from repro.core.timed_dfg import build_cyclic_timed_dfg
from repro.errors import ReproError
from repro.flows import conventional_flow, slack_based_flow
from repro.ir.operations import OpKind
from repro.lib.tsmc90 import tsmc90_library
from repro.verify.scenarios import generate_pipelined_scenario
from repro.workloads import interpolation_design

_IIS = (1, 2, 3, 5, 8)


@pytest.fixture(scope="module")
def library():
    return tsmc90_library()


def _default_delays(design, library):
    """The delays RecMII probing assumes: each op's default library delay."""
    return {op.name: library.operation_delay(op)
            for op in design.dfg.operations if op.kind is not OpKind.CONST}


def _designs():
    """``(label, design, clock_period)``: 12 pipelined scenarios and the
    interpolation design at clocks whose RecMII is 2, 3 and 5."""
    cases = []
    for seed in range(12):
        spec = generate_pipelined_scenario(seed)
        cases.append((f"scenario{seed}", spec.design(), spec.clock_period))
    for clock_period in (1100.0, 800.0, 400.0):
        cases.append((f"interpolation@{clock_period:.0f}",
                      interpolation_design(), clock_period))
    return cases


@pytest.fixture(scope="module")
def cyclic_graphs(library):
    """The 75 cyclic timed DFGs: every design of :func:`_designs` at each II."""
    graphs = []
    for label, design, clock_period in _designs():
        delays = _default_delays(design, library)
        for ii in _IIS:
            timed = build_cyclic_timed_dfg(design, ii)
            assert timed.cyclic
            graphs.append((f"{label}/ii{ii}", timed, delays, clock_period))
    return graphs


def _reference_passes(timed, delays, clock_period, aligned, max_passes):
    """Modulo-II Bellman-Ford on name-keyed dicts.

    Returns ``(arrival, required, improving_arrival, improving_required)``;
    the improving sets name the nodes a verification sweep after an
    unconverged pass budget could still raise (arrival) or lower (required).
    """
    nodes = list(timed.nodes)
    edges = sorted(timed.edges, key=lambda e: (e.src, e.dst, e.weight))
    passes = max_passes if max_passes > 0 else max(len(nodes), 1)

    def delay_of(name):
        return float(delays.get(name, 0.0))

    def arrival_candidate(edge, arrival):
        start = arrival[edge.src]
        if aligned:
            start = aligned_start(start, delay_of(edge.src), clock_period)
        return start + delay_of(edge.src) - clock_period * edge.weight

    def required_candidate(edge, required):
        candidate = (required[edge.dst] - delay_of(edge.src)
                     + clock_period * edge.weight)
        if aligned:
            candidate = aligned_required(candidate, delay_of(edge.src),
                                         clock_period)
        return candidate

    arrival = {node: 0.0 for node in nodes}
    converged = False
    for _ in range(passes):
        changed = False
        for edge in edges:
            candidate = arrival_candidate(edge, arrival)
            if candidate > arrival[edge.dst] + 1e-9:
                arrival[edge.dst] = candidate
                changed = True
        if not changed:
            converged = True
            break
    improving_arrival = set()
    if not converged:
        for edge in edges:
            if arrival_candidate(edge, arrival) > arrival[edge.dst] + 1e-6:
                improving_arrival.add(edge.dst)

    required = {node: (clock_period - delay_of(node)
                       if not timed.successors(node) else float("inf"))
                for node in nodes}
    converged = False
    for _ in range(passes):
        changed = False
        for edge in edges:
            if required[edge.dst] == float("inf"):
                continue
            candidate = required_candidate(edge, required)
            if candidate < required[edge.src] - 1e-9:
                required[edge.src] = candidate
                changed = True
        if not changed:
            converged = True
            break
    improving_required = set()
    if not converged:
        for edge in edges:
            if required[edge.dst] == float("inf"):
                continue
            if required_candidate(edge, required) < required[edge.src] - 1e-6:
                improving_required.add(edge.src)
    return arrival, required, improving_arrival, improving_required


def _kernel_passes(timed, delays, clock_period, aligned, max_passes):
    graph = timed.compact()
    vector = graph.delay_vector(delays)
    arrival, improving_arrival = arrival_passes(
        graph, vector, clock_period, aligned=aligned, max_passes=max_passes)
    required, improving_required = required_passes(
        graph, vector, clock_period, aligned=aligned, max_passes=max_passes)
    names = graph.names
    return ({names[i]: value for i, value in enumerate(arrival)},
            {names[i]: value for i, value in enumerate(required)},
            {names[i] for i in improving_arrival},
            {names[i] for i in improving_required})


@pytest.mark.parametrize("max_passes", [0, 2])
def test_graphkit_passes_match_the_reference(cyclic_graphs, max_passes):
    assert len(cyclic_graphs) == 75
    converged = diverged = 0
    for label, timed, delays, clock_period in cyclic_graphs:
        for aligned in (False, True):
            context = f"{label} aligned={aligned} max_passes={max_passes}"
            expected = _reference_passes(timed, delays, clock_period, aligned,
                                         max_passes)
            actual = _kernel_passes(timed, delays, clock_period, aligned,
                                    max_passes)
            assert actual[0] == expected[0], context
            assert actual[1] == expected[1], context
            assert actual[2] == expected[2], context
            assert actual[3] == expected[3], context
            if expected[2] or expected[3]:
                diverged += 1
            else:
                converged += 1
    assert converged and diverged, (converged, diverged)


def _evaluator_state(evaluator):
    return (list(evaluator.arrival), list(evaluator.required),
            evaluator.worst_slack(), evaluator.critical_indices(0.05),
            evaluator.violating_indices(), evaluator.export())


def _fresh_state(graph, delays, clock_period, aligned):
    """A fresh evaluator's state, after checking its divergence verdict
    against the passes: a diverged evaluator has ``-inf`` worst slack, its
    critical operations are exactly the still-improving ones, each of them
    violates and exports ``-inf`` slack."""
    evaluator = CyclicSlackEvaluator(graph, delays, clock_period,
                                     aligned=aligned)
    improving = (arrival_passes(graph, delays, clock_period, aligned=aligned)[1]
                 | required_passes(graph, delays, clock_period,
                                   aligned=aligned)[1])
    assert evaluator.diverged == bool(improving)
    if improving:
        stuck = [i for i in graph.op_indices if i in improving]
        assert evaluator.worst_slack() == -float("inf")
        assert evaluator.critical_indices(0.05) == stuck
        assert set(stuck) <= set(evaluator.violating_indices())
        slack = evaluator.export().slack
        assert all(slack[graph.names[i]] == -float("inf") for i in stuck)
    return _evaluator_state(evaluator)


def test_cyclic_evaluator_edits_match_a_fresh_evaluator(cyclic_graphs):
    checked = diverged = 0
    for label, timed, delays, clock_period in cyclic_graphs[::3]:
        graph = timed.compact()
        vector = graph.delay_vector(delays)
        node = max(range(graph.num_nodes), key=lambda i: (vector[i], -i))
        for aligned in (False, True):
            context = f"{label} aligned={aligned}"
            evaluator = CyclicSlackEvaluator(graph, vector, clock_period,
                                             aligned=aligned)
            before = _fresh_state(graph, vector, clock_period, aligned)
            assert _evaluator_state(evaluator) == before, context
            for factor in (0.5, 2.0):
                edited = list(vector)
                edited[node] = vector[node] * factor
                fresh = _fresh_state(graph, edited, clock_period, aligned)
                evaluator.set_delay(node, edited[node])
                assert _evaluator_state(evaluator) == fresh, context
                diverged += evaluator.diverged
                evaluator.set_delay(node, vector[node])
                assert _evaluator_state(evaluator) == before, context
                evaluator.begin_trial()
                evaluator.set_delay(node, edited[node])
                assert _evaluator_state(evaluator) == fresh, context
                evaluator.rollback()
                assert _evaluator_state(evaluator) == before, context
            assert evaluator.updates == 6
            checked += 1
    assert checked == 50 and diverged


#: sha256 over each pipelined flow outcome of :func:`_flow_outcomes`:
#: ``[achieved II, ii_bumps, total area]``, or ``[exception class, message]``.
_FLOW_DIGESTS = {
    "conventional/1500/None":
        "7a3a1c5baca398c2a42c8ded7834f89acb6f6d67216808273e503c18b8436db6",
    "conventional/1500/1":
        "b18cb79098e07f52ef758ca199f18ed25a780d1dd4a04db67b0ae19ae7e9a564",
    "conventional/1100/None":
        "552506544fedf5d52cc0c495569171e5c7e2e2ddf683d8674c0a3504a7f2969b",
    "conventional/1100/1":
        "ec5c48e3a37a680e0e5fbaa28b7bbb935a087bf2abb1c5297c6070c02533756f",
    "conventional/800/None":
        "711dd88d9f9e373caad2ed5f89df1d619bf40e0b0e83faad9e40e6ebed8a4714",
    "conventional/800/1":
        "711dd88d9f9e373caad2ed5f89df1d619bf40e0b0e83faad9e40e6ebed8a4714",
    "slack/1500/None":
        "eda4044efc7f24c752d107b57ab8c14fd6a14876ebf8f8ada5fb898304d6311c",
    "slack/1500/1":
        "b18cb79098e07f52ef758ca199f18ed25a780d1dd4a04db67b0ae19ae7e9a564",
    "slack/1100/None":
        "775521b66d736166116cdbe2dca8b7c62f5c298c1fcc36aa9eabd5b21a4e1a05",
    "slack/1100/1":
        "ec5c48e3a37a680e0e5fbaa28b7bbb935a087bf2abb1c5297c6070c02533756f",
    "slack/800/None":
        "711dd88d9f9e373caad2ed5f89df1d619bf40e0b0e83faad9e40e6ebed8a4714",
    "slack/800/1":
        "711dd88d9f9e373caad2ed5f89df1d619bf40e0b0e83faad9e40e6ebed8a4714",
}


def _flow_outcomes(library):
    outcomes = {}
    for flow_fn, flow_name in ((conventional_flow, "conventional"),
                               (slack_based_flow, "slack")):
        for clock_period in (1500.0, 1100.0, 800.0):
            for pipeline_ii in (None, 1):
                try:
                    flow = flow_fn(interpolation_design(), library,
                                   clock_period=clock_period,
                                   scheduling="pipeline",
                                   pipeline_ii=pipeline_ii)
                    record = [flow.details["initiation_interval"],
                              flow.details["ii_bumps"], flow.total_area]
                except ReproError as exc:
                    record = [type(exc).__name__, str(exc)]
                key = f"{flow_name}/{clock_period:.0f}/{pipeline_ii}"
                outcomes[key] = record
    return outcomes


def test_pipelined_flows_on_a_real_recurrence(library):
    outcomes = _flow_outcomes(library)
    digests = {key: hashlib.sha256(json.dumps(record).encode()).hexdigest()
               for key, record in outcomes.items()}
    assert digests == _FLOW_DIGESTS, outcomes
