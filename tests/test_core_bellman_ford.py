"""The Bellman-Ford baseline must compute exactly the same slack values."""

import pytest

from repro.core.bellman_ford import compute_sequential_slack_bellman_ford
from repro.core.sequential_slack import compute_sequential_slack
from repro.core.timed_dfg import TimedDFG, build_cyclic_timed_dfg, build_timed_dfg
from repro.errors import TimingError
from repro.verify.scenarios import generate_pipelined_scenario
from repro.workloads import random_layered_design


def _delays(design, library):
    delays = {}
    for op in design.dfg.operations:
        if op.is_synthesizable:
            delays[op.name] = library.fastest_variant(op).delay
        else:
            delays[op.name] = 0.0
    return delays


@pytest.mark.parametrize("aligned", [False, True])
def test_equivalence_on_resizer(resizer_main, library, aligned):
    timed = build_timed_dfg(resizer_main)
    delays = _delays(resizer_main, library)
    reference = compute_sequential_slack(timed, delays, 1500.0, aligned=aligned)
    baseline = compute_sequential_slack_bellman_ford(timed, delays, 1500.0,
                                                     aligned=aligned)
    for name in reference.slack:
        assert baseline.arrival[name] == pytest.approx(reference.arrival[name])
        assert baseline.required[name] == pytest.approx(reference.required[name])
        assert baseline.slack[name] == pytest.approx(reference.slack[name])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("aligned", [False, True])
def test_equivalence_on_random_designs(library, seed, aligned):
    design = random_layered_design(seed=seed, layers=4, ops_per_layer=5, latency=4)
    timed = build_timed_dfg(design)
    delays = _delays(design, library)
    reference = compute_sequential_slack(timed, delays, 1500.0, aligned=aligned)
    baseline = compute_sequential_slack_bellman_ford(timed, delays, 1500.0,
                                                     aligned=aligned)
    for name in reference.slack:
        assert baseline.slack[name] == pytest.approx(reference.slack[name])


def test_equivalence_on_interpolation(interpolation, library):
    timed = build_timed_dfg(interpolation)
    delays = _delays(interpolation, library)
    reference = compute_sequential_slack(timed, delays, 1100.0)
    baseline = compute_sequential_slack_bellman_ford(timed, delays, 1100.0)
    assert baseline.worst_slack() == pytest.approx(reference.worst_slack())


def test_invalid_clock_rejected(resizer_main, library):
    timed = build_timed_dfg(resizer_main)
    with pytest.raises(Exception):
        compute_sequential_slack_bellman_ford(timed, {}, -1.0)


def _chain_with_unreached_nodes():
    """A DAG whose name-sorted edge order is anti-topological.

    One relaxation pass over the sorted edges only reaches ``y``; ``x`` and
    ``w`` still sit at -inf when the verification sweep runs, which is the
    regression surface: the sweep used to feed those -inf arrivals into
    ``aligned_start`` (OverflowError) instead of skipping them like the main
    loop does.
    """
    timed = TimedDFG("anti_topological_chain")
    for node in ("z", "y", "x", "w"):
        timed.add_node(node)
    timed.add_edge("z", "y", 0)
    timed.add_edge("y", "x", 0)
    timed.add_edge("x", "w", 0)
    return timed


def test_verification_sweep_guards_unreached_sources_when_aligned():
    """Regression: ``max_passes`` too small + ``aligned=True`` must raise the
    structured non-convergence TimingError, not crash on -inf arrivals."""
    timed = _chain_with_unreached_nodes()
    delays = {"z": 200.0, "y": 200.0, "x": 200.0, "w": 200.0}
    with pytest.raises(TimingError, match="did not converge"):
        compute_sequential_slack_bellman_ford(timed, delays, 1000.0,
                                              aligned=True, max_passes=1)


@pytest.mark.parametrize("aligned", [False, True])
def test_unreachable_cycle_nodes_do_not_trigger_spurious_errors(aligned):
    """Nodes trapped behind a cycle never receive an arrival time; they must
    neither crash the aligned verification sweep nor masquerade as a
    positive cycle.  The reachable part of the graph is still analysed."""
    timed = TimedDFG("cycle_plus_chain")
    for node in ("a", "b", "loop1", "loop2", "trapped"):
        timed.add_node(node)
    timed.add_edge("a", "b", 0)
    timed.add_edge("loop1", "loop2", 0)
    timed.add_edge("loop2", "loop1", 0)
    timed.add_edge("loop2", "trapped", 0)
    delays = {"a": 300.0, "b": 300.0, "loop1": 100.0, "loop2": 100.0,
              "trapped": 100.0}
    result = compute_sequential_slack_bellman_ford(timed, delays, 1000.0,
                                                   aligned=aligned,
                                                   max_passes=1)
    assert result.arrival["b"] == pytest.approx(300.0)
    assert result.arrival["trapped"] == -float("inf")


def _modulo_outcomes(design, delays, clock_period):
    """Both analyses on the cyclic timed DFG of ``design`` at II 1-4,
    aligned and plain: ``(arrival, required, slack)`` per side, or the
    exception class when one fails."""
    def outcome(compute, timed, aligned):
        try:
            result = compute(timed, delays, clock_period, aligned=aligned)
        except TimingError as exc:
            return type(exc)
        return result.arrival, result.required, result.slack

    outcomes = []
    for ii in (1, 2, 3, 4):
        timed = build_cyclic_timed_dfg(design, ii)
        for aligned in (False, True):
            outcomes.append((f"ii={ii} aligned={aligned}",
                             outcome(compute_sequential_slack, timed, aligned),
                             outcome(compute_sequential_slack_bellman_ford,
                                     timed, aligned)))
    return outcomes


@pytest.mark.parametrize("seed", range(30))
def test_equivalence_on_modulo_graphs(library, seed):
    """On a cyclic (modulo-II) timed DFG every node starts at arrival 0.0,
    so the Bellman-Ford baseline and the sequential-slack entry point agree
    there too."""
    spec = generate_pipelined_scenario(seed)
    design = spec.design()
    for context, expected, actual in _modulo_outcomes(
            design, _delays(design, library), spec.clock_period):
        assert actual == expected, context


def test_both_reject_an_ii_below_recmii(interpolation, library):
    """At 800 ps the interpolation design's recurrences need II 3 (plain)
    or 4 (aligned): below that both analyses raise a TimingError."""
    outcomes = _modulo_outcomes(interpolation, _delays(interpolation, library),
                                800.0)
    for context, expected, actual in outcomes:
        assert actual == expected, context
    failed = [context for context, expected, _ in outcomes
              if expected is TimingError]
    assert failed == ["ii=1 aligned=False", "ii=1 aligned=True",
                      "ii=2 aligned=False", "ii=2 aligned=True",
                      "ii=3 aligned=True"]
