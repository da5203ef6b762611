"""Paper Table 5: relative scheduling execution times.

Compares, on the largest IDCT design point (the paper's D1):

* conventional scheduling (fastest resources, no timing analysis),
* slack-based scheduling (sequential-slack budgeting + re-budgeting), and
* the same slack-based flow with the timing analysis replaced by the
  Bellman-Ford constraint-graph formulation (paper ref. [10]).

The paper reports 1 / 1.18 / 10.2.  The reproduction target is the ordering
and the order of magnitude: the slack-based scheduler costs a modest factor
over the conventional one, while the Bellman-Ford formulation is many times
slower than the topological formulation.
"""

import time

import pytest

from conftest import idct_rows
from repro.core.bellman_ford import compute_sequential_slack_bellman_ford
from repro.core.sequential_slack import compute_sequential_slack
from repro.core.timed_dfg import build_timed_dfg
from repro.flows import conventional_flow, format_table, slack_based_flow, table5_rows
from repro.ir.operations import OpKind
from repro.workloads import idct_design

CLOCK = 1500.0


def _fastest_call(call):
    """The fastest wall time, in seconds, of 10 calls."""
    fastest = float("inf")
    for _ in range(10):
        start = time.perf_counter()
        call()
        fastest = min(fastest, time.perf_counter() - start)
    return fastest


@pytest.fixture(scope="module")
def design(library):
    return idct_design(latency=32, rows=idct_rows(), clock_period=CLOCK)


def test_conventional_scheduling_time(benchmark, library, design):
    result = benchmark.pedantic(
        lambda: conventional_flow(design, library, clock_period=CLOCK),
        rounds=3, iterations=1)
    assert result.meets_timing


def test_slack_based_scheduling_time(benchmark, library, design):
    result = benchmark.pedantic(
        lambda: slack_based_flow(design, library, clock_period=CLOCK),
        rounds=3, iterations=1)
    assert result.meets_timing


def test_bellman_ford_timing_analysis_time(benchmark, library, design):
    """One timing-analysis call: topological vs Bellman-Ford cost."""
    timed = build_timed_dfg(design)
    delays = {op.name: library.operation_delay(op)
              for op in design.dfg.operations if op.kind is not OpKind.CONST}
    benchmark.pedantic(
        lambda: compute_sequential_slack_bellman_ford(timed, delays, CLOCK),
        rounds=3, iterations=1)
    reference = compute_sequential_slack(timed, delays, CLOCK)
    baseline = compute_sequential_slack_bellman_ford(timed, delays, CLOCK)
    assert baseline.worst_slack() == pytest.approx(reference.worst_slack())


def test_table5_relative_times(benchmark, library, design):
    start = time.perf_counter()
    conventional = conventional_flow(design, library, clock_period=CLOCK)
    conventional_seconds = conventional.scheduling_seconds

    slack = slack_based_flow(design, library, clock_period=CLOCK)
    slack_seconds = slack.scheduling_seconds

    # Scheduling time of the slack flow if every slack evaluation used the
    # Bellman-Ford formulation: measured by scaling the number of timing
    # evaluations by the per-call cost ratio of the two analyses.
    timed = build_timed_dfg(design)
    delays = {op.name: library.operation_delay(op)
              for op in design.dfg.operations if op.kind is not OpKind.CONST}
    # Warm both paths once outside the timed windows: the first call on a
    # fresh timed DFG pays the one-time CSR interning / edge-order caching
    # (see repro.core.graphkit), which would otherwise be billed to
    # whichever implementation happens to run first.
    compute_sequential_slack(timed, delays, CLOCK)
    compute_sequential_slack_bellman_ford(timed, delays, CLOCK)
    # Each analysis costs the fastest of its repeats: a call lasts well under
    # a millisecond, so one scheduler pause inflates a mean (and can invert
    # the ratio), while the minimum is the run least disturbed by the
    # machine — the estimator perfbench uses for the same reason.
    topological_cost = _fastest_call(
        lambda: compute_sequential_slack(timed, delays, CLOCK))
    bellman_cost = _fastest_call(
        lambda: compute_sequential_slack_bellman_ford(timed, delays, CLOCK))
    analysis_ratio = bellman_cost / max(topological_cost, 1e-9)
    timing_share = max(slack_seconds - conventional_seconds, 0.0)
    bellman_seconds = conventional_seconds + timing_share * analysis_ratio

    header, rows = table5_rows(conventional_seconds, slack_seconds, bellman_seconds)
    print()
    print(format_table(header, rows,
                       title="Table 5. Relative scheduling execution times "
                             "(paper: 1 / 1.18 / 10.2)"))
    print(f"  raw: conventional={conventional_seconds:.3f}s "
          f"slack={slack_seconds:.3f}s bellman-ford(modelled)={bellman_seconds:.3f}s "
          f"analysis ratio={analysis_ratio:.1f}x")

    benchmark.pedantic(lambda: compute_sequential_slack(timed, delays, CLOCK),
                       rounds=3, iterations=1)

    # Shape: the slack-based scheduler costs more than the conventional one,
    # and replacing the topological timing analysis with the Bellman-Ford
    # formulation costs more again.  (The absolute ratio is smaller than the
    # paper's 10.2x because our DFGs are far shallower than the industrial
    # design D1 and our Bellman-Ford implementation terminates early once the
    # relaxation converges — see EXPERIMENTS.md; the scaling benchmarks in
    # test_bench_scaling.py show the gap widening with design size.)
    assert slack_seconds > conventional_seconds
    assert analysis_ratio > 1.2
    assert bellman_seconds > slack_seconds
    assert time.perf_counter() - start < 600.0
