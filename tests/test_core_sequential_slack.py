"""Tests for sequential slack and aligned slack."""

import pytest

from repro.core.sequential_slack import (
    TimingResult,
    aligned_required,
    aligned_start,
    compute_sequential_slack,
)
from repro.core.timed_dfg import TimedDFG, build_timed_dfg
from repro.errors import TimingError


def chain_dfg(num_ops=3, weight=0):
    """a0 -> a1 -> ... chain with constant edge weights and sinks."""
    timed = TimedDFG("chain")
    for i in range(num_ops):
        timed.add_node(f"a{i}")
    for i in range(num_ops - 1):
        timed.add_edge(f"a{i}", f"a{i+1}", weight)
    for i in range(num_ops):
        timed.add_node(f"__sink__a{i}")
        timed.add_edge(f"a{i}", f"__sink__a{i}", 0)
    return timed


def test_combinational_chain_slack():
    timed = chain_dfg(3, weight=0)
    delays = {"a0": 100.0, "a1": 200.0, "a2": 300.0}
    result = compute_sequential_slack(timed, delays, clock_period=1000.0)
    # Arrival times accumulate, required times leave exactly the path slack.
    assert result.arrival["a0"] == 0.0
    assert result.arrival["a1"] == 100.0
    assert result.arrival["a2"] == 300.0
    assert result.slack["a0"] == pytest.approx(400.0)
    assert result.slack["a1"] == pytest.approx(400.0)
    assert result.slack["a2"] == pytest.approx(400.0)


def test_state_crossing_credits_one_clock_period():
    timed = chain_dfg(2, weight=1)
    delays = {"a0": 600.0, "a1": 600.0}
    result = compute_sequential_slack(timed, delays, clock_period=1000.0)
    # a0 has the remainder of its own cycle; a1 additionally inherits the
    # unused part of the previous cycle (sequential, not combinational, slack).
    assert result.slack["a0"] == pytest.approx(400.0)
    assert result.slack["a1"] == pytest.approx(800.0)


def test_negative_slack_detected_when_chain_exceeds_period():
    timed = chain_dfg(2, weight=0)
    delays = {"a0": 700.0, "a1": 700.0}
    result = compute_sequential_slack(timed, delays, clock_period=1000.0)
    assert result.worst_slack() == pytest.approx(-400.0)
    assert set(result.critical_operations()) == {"a0", "a1"}


def test_critical_path_ops_share_minimum_slack(resizer_main, library):
    timed = build_timed_dfg(resizer_main)
    delays = {op.name: 100.0 for op in resizer_main.dfg.operations}
    result = compute_sequential_slack(timed, delays, clock_period=500.0)
    worst = result.worst_slack()
    critical = result.critical_operations()
    assert critical
    for name in critical:
        assert result.slack[name] == pytest.approx(worst)


def test_aligned_start_pushes_across_boundary():
    assert aligned_start(0.0, 400.0, 1000.0) == 0.0
    assert aligned_start(700.0, 400.0, 1000.0) == 1000.0
    # Negative times live in earlier cycles; the same rule applies there.
    assert aligned_start(-700.0, 400.0, 1000.0) == -700.0
    assert aligned_start(-300.0, 400.0, 1000.0) == 0.0
    # Delays longer than the period cannot be aligned.
    assert aligned_start(700.0, 1200.0, 1000.0) == 700.0


def test_aligned_required_pulls_back_inside_cycle():
    assert aligned_required(500.0, 400.0, 1000.0) == 500.0
    assert aligned_required(800.0, 400.0, 1000.0) == 600.0
    assert aligned_required(1800.0, 400.0, 1000.0) == 1600.0


def test_aligned_slack_never_exceeds_plain_slack(resizer_main, library):
    timed = build_timed_dfg(resizer_main)
    delays = {}
    for op in resizer_main.dfg.operations:
        if op.is_synthesizable:
            delays[op.name] = library.fastest_variant(op).delay
        else:
            delays[op.name] = 0.0
    plain = compute_sequential_slack(timed, delays, 1500.0, aligned=False)
    aligned = compute_sequential_slack(timed, delays, 1500.0, aligned=True)
    for name in plain.slack:
        assert aligned.slack[name] <= plain.slack[name] + 1e-6


def test_aligned_mode_forbids_boundary_crossing_chains():
    timed = chain_dfg(2, weight=1)
    delays = {"a0": 800.0, "a1": 800.0}
    plain = compute_sequential_slack(timed, delays, 1000.0, aligned=False)
    aligned = compute_sequential_slack(timed, delays, 1000.0, aligned=True)
    # Plain slack lets a1 start mid-cycle; aligned slack pushes it to the
    # boundary, reducing a0's downstream requirement.
    assert aligned.slack["a1"] <= plain.slack["a1"] + 1e-6
    assert aligned.slack["a0"] == pytest.approx(200.0)


def test_invalid_clock_period_rejected():
    timed = chain_dfg(2)
    with pytest.raises(TimingError):
        compute_sequential_slack(timed, {}, 0.0)
