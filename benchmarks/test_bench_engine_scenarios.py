"""Scenario-diverse DSE sweep (paper Section VII generalized).

Runs every :func:`scenario_sweep` scenario — the public-style kernels (FIR,
matmul, DCT butterfly, FFT stage, Sobel) plus seeded random layered designs
at several sizes, each over several latencies — through one
:class:`SweepSession`.  This generalizes the DSE harness beyond the paper's
IDCT and stands in for the "over 100 customer designs" experiment: the
reproduction target is a positive average saving across scenarios with some
scenarios showing little or no gain.
"""

from repro.flows import SweepSession, format_table, scenario_sweep


def test_engine_scenario_sweep(benchmark, library):
    scenarios = scenario_sweep(clock_period=1500.0)

    def sweep():
        results = {}
        for scenario in scenarios:
            result = SweepSession(scenario.factory, library).run(scenario.points)
            result.raise_on_failures()
            results[scenario.name] = result
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    savings = []
    total_points = 0
    for name, result in results.items():
        average = result.average_saving_percent()
        savings.append(average)
        total_points += len(result.entries)
        rows.append([name, str(len(result.entries)), f"{average:.1f}",
                     f"{result.wall_time_seconds:.2f}"])
    overall = sum(savings) / len(savings)
    rows.append(["Average", str(total_points), f"{overall:.1f}", ""])
    print()
    print(format_table(["scenario", "points", "Save %", "wall (s)"], rows,
                       title="Scenario sweep "
                             "(paper: ~5 % average customer-design saving)"))

    benchmark.extra_info["scenarios"] = len(scenarios)
    benchmark.extra_info["design_points"] = total_points
    benchmark.extra_info["average_saving_percent"] = round(overall, 2)

    # Shape: every scenario completes and meets timing, the suite as a whole
    # does not regress, and at least one scenario benefits clearly.
    for result in results.values():
        assert all(entry.conventional.meets_timing and
                   entry.slack_based.meets_timing for entry in result.entries)
    assert total_points >= 25
    assert overall > -2.0
    assert max(savings) > 3.0
