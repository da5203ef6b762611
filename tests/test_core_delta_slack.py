"""Property tests of the incremental slack evaluator.

The :class:`~repro.core.delta_slack.DeltaSlackEvaluator` maintains the
arrival/effective/required vectors of a compact timed graph under
single-delay edits; the budgeting kernel trusts it to be *bit-identical* to
recomputing the full kernels after every edit.  These tests replay seeded
random edit/trial/rollback sequences on real designs (kernel workloads and
segmented diamond CFGs with mixed widths and wait states) and compare every
intermediate state against fresh kernel runs — exact float equality, no
tolerances.
"""

import random

import pytest

from repro.core.delta_slack import DeltaSlackEvaluator
from repro.core.graphkit import arrival_kernel, required_kernel
from repro.flows.pipeline import PointArtifacts
from repro.ir.operations import OpKind
from repro.lib.tsmc90 import tsmc90_library
from repro.verify.scenarios import generate_scenario
from repro.workloads import fir_design, matmul_design


@pytest.fixture(scope="module")
def library():
    return tsmc90_library()


def _compact_and_delays(design, library):
    artifacts = PointArtifacts.build(design)
    delays = {
        op.name: library.operation_delay(op, library.fastest_variant(op))
        for op in design.dfg.operations
        if op.kind is not OpKind.CONST and op.is_synthesizable
    }
    graph = artifacts.timed.compact()
    return graph, graph.delay_vector(delays)


def _assert_matches_fresh_kernels(evaluator, graph, clock_period, aligned,
                                  context):
    arrival, effective = arrival_kernel(
        graph, evaluator.delays, clock_period, aligned)
    required = required_kernel(graph, evaluator.delays, clock_period,
                               aligned=aligned)
    assert evaluator.arrival == arrival, context
    assert evaluator.effective == effective, context
    assert evaluator.required == required, context


def _random_walk(graph, delays, clock_period, aligned, seed, steps=40):
    """Seeded edit walk: grow/shrink random delays, trial/commit/rollback."""
    rng = random.Random(seed)
    evaluator = DeltaSlackEvaluator(graph, delays, clock_period,
                                    aligned=aligned)
    synth = [node for node in range(graph.num_nodes)
             if evaluator.delays[node] > 0.0]
    if not synth:
        pytest.skip("design has no synthesizable delay to edit")
    shadow = list(evaluator.delays)
    for step in range(steps):
        node = rng.choice(synth)
        new_delay = round(shadow[node] * rng.choice((0.5, 0.8, 1.25, 2.0)), 6)
        action = rng.random()
        if action < 0.5:
            # Committed edit: the shadow model changes too.
            evaluator.begin_trial()
            evaluator.set_delay(node, new_delay)
            evaluator.commit()
            shadow[node] = new_delay
        elif action < 0.85:
            # Rolled-back trial: the evaluator must return to the shadow
            # state exactly.
            evaluator.begin_trial()
            evaluator.set_delay(node, new_delay)
            evaluator.worst_slack()
            evaluator.rollback()
        else:
            # Untracked direct edit (no journal) is also supported.
            evaluator.set_delay(node, new_delay)
            shadow[node] = new_delay
        assert evaluator.delays == shadow, f"seed={seed} step={step}"
        _assert_matches_fresh_kernels(
            evaluator, graph, clock_period, aligned,
            f"seed={seed} step={step} aligned={aligned}")
    return evaluator


@pytest.mark.parametrize("aligned", [False, True])
def test_kernel_workload_walks_are_bit_identical(library, aligned):
    design = fir_design(taps=8, latency=6, clock_period=1500.0)
    graph, delays = _compact_and_delays(design, library)
    _random_walk(graph, delays, 1500.0, aligned, seed=101)


def test_matmul_walk_is_bit_identical(library):
    design = matmul_design(size=3, latency=8, clock_period=1500.0)
    graph, delays = _compact_and_delays(design, library)
    _random_walk(graph, delays, 1500.0, aligned=True, seed=202)


@pytest.mark.parametrize("seed", [3, 17, 55, 91])
def test_segmented_scenario_walks_are_bit_identical(library, seed):
    """Mixed widths, diamond CFGs and wait states from the fuzz generator."""
    spec = generate_scenario(seed)
    design = spec.design()
    graph, delays = _compact_and_delays(design, library)
    _random_walk(graph, delays, spec.clock_period, aligned=True, seed=seed,
                 steps=25)


def test_seed_cache_reuses_initial_vectors(library):
    """Two evaluators over the same (graph, delays, clock) share one seed
    computation; mutating the first must not leak into the second."""
    design = fir_design(taps=8, latency=6, clock_period=1500.0)
    graph, delays = _compact_and_delays(design, library)
    first = DeltaSlackEvaluator(graph, list(delays), 1500.0, aligned=True)
    baseline = (list(first.arrival), list(first.effective),
                list(first.required))
    node = next(n for n in range(graph.num_nodes) if first.delays[n] > 0)
    first.set_delay(node, first.delays[node] * 2.0)
    second = DeltaSlackEvaluator(graph, list(delays), 1500.0, aligned=True)
    assert (second.arrival, second.effective, second.required) == \
        (baseline[0], baseline[1], baseline[2])


def test_export_matches_full_timing_result(library):
    design = fir_design(taps=8, latency=6, clock_period=1500.0)
    graph, delays = _compact_and_delays(design, library)
    evaluator = _random_walk(graph, delays, 1500.0, aligned=True, seed=7,
                             steps=10)
    result = evaluator.export()
    # The exported TimingResult mirrors the evaluator's vectors name by name.
    for name, index in graph.index.items():
        if name in result.arrival:
            assert result.arrival[name] == evaluator.arrival[index]
            assert result.required[name] == evaluator.required[index]
