"""Customer-design stand-in sweep (paper Section VII, "over 100 customer designs").

The confidential designs are replaced by public-style kernels (FIR, matrix
multiply, DCT butterfly, FFT stage, Sobel) plus seeded random dataflows.  The
paper reports an average ~5 % final-area improvement on designs with enough
sequential slack; the reproduction target is a positive average saving with
some kernels showing little or no gain.
"""

import pytest

from repro.flows import conventional_flow, format_table, slack_based_flow
from repro.workloads import (
    dct_butterfly_design,
    fft_stage_design,
    fir_design,
    matmul_design,
    random_layered_design,
    sobel_design,
)

CLOCK = 1500.0


def kernel_suite():
    return [
        fir_design(taps=8, latency=6, clock_period=CLOCK),
        fir_design(taps=12, latency=8, clock_period=CLOCK),
        matmul_design(size=3, latency=8, clock_period=CLOCK),
        dct_butterfly_design(latency=5, clock_period=CLOCK),
        fft_stage_design(points=8, latency=6, clock_period=CLOCK),
        sobel_design(latency=5, clock_period=CLOCK),
        random_layered_design(seed=11, layers=4, ops_per_layer=6, latency=6,
                              clock_period=CLOCK),
        random_layered_design(seed=23, layers=5, ops_per_layer=5, latency=8,
                              clock_period=CLOCK),
    ]


def test_kernel_sweep_area_savings(benchmark, library):
    rows = []
    savings = []

    def sweep():
        rows.clear()
        savings.clear()
        for design in kernel_suite():
            conventional = conventional_flow(design, library, clock_period=CLOCK)
            slack = slack_based_flow(design, library, clock_period=CLOCK)
            saving = 100.0 * (conventional.total_area - slack.total_area) / \
                conventional.total_area
            savings.append(saving)
            rows.append([design.name,
                         f"{conventional.total_area:.0f}",
                         f"{slack.total_area:.0f}",
                         f"{saving:.1f}",
                         "yes" if (conventional.meets_timing and
                                   slack.meets_timing) else "no"])
        return sum(savings) / len(savings)

    average = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows.append(["Average", "", "", f"{average:.1f}", ""])
    print()
    print(format_table(["design", "A_conv", "A_slack", "Save %", "timing met"],
                       rows,
                       title="Customer-design stand-in sweep "
                             "(paper: ~5 % average saving)"))

    assert all(row[-1] in ("yes", "") for row in rows)
    # Shape: the sweep as a whole does not regress, and at least one kernel
    # benefits clearly.  (The paper reports a ~5 % average on its customer
    # designs — smaller than the IDCT result because many of those designs
    # have little sequential slack to exploit; the same effect shows up here
    # on the shallow kernels.)
    assert average > -2.0
    assert max(savings) > 3.0


def test_batched_session_matches_and_beats_per_point(benchmark, library,
                                                    cold_caches):
    """Batched ``SweepSession`` vs independent per-point evaluation.

    The session must be bit-for-bit identical to evaluating every point on
    its own (the ``sweep-session`` oracle's equivalence, here on the kernel
    suite) while reusing interned designs and shared bundles across clock
    knobs.  Both wall times are recorded; the batched path is the one the
    perf gate tracks.
    """
    import json
    import time

    from repro.flows import DesignPoint, SweepSession, evaluate_point
    from repro.workloads.factories import KernelPointFactory

    factory = KernelPointFactory("fir", params=(("taps", 8),))
    points = [
        DesignPoint(name=f"fir8_L{latency}_c{int(clock)}", latency=latency,
                    clock_period=clock)
        for latency in (6, 8, 10)
        for clock in (CLOCK, 1.25 * CLOCK)
    ]

    def batched():
        session = SweepSession(factory, library)
        return session.run(points), session

    result, session = benchmark.pedantic(batched, rounds=1, iterations=1)

    per_point_start = time.perf_counter()
    baseline = [evaluate_point(factory, library, point)
                for point in points]
    per_point_seconds = time.perf_counter() - per_point_start

    assert [json.dumps(entry.metrics(), sort_keys=True)
            for entry in result.entries] \
        == [json.dumps(entry.metrics(), sort_keys=True) for entry in baseline]
    # Three structures serve six points: the rest ride the delta path.
    assert session.stats.full_evaluations == 3
    assert session.stats.delta_points == 3
    benchmark.extra_info["batched_wall_s"] = round(
        result.wall_time_seconds, 3)
    benchmark.extra_info["per_point_wall_s"] = round(per_point_seconds, 3)
    print()
    print(format_table(
        ["harness", "wall time (s)"],
        [["batched SweepSession", f"{result.wall_time_seconds:.2f}"],
         ["per-point evaluate_point", f"{per_point_seconds:.2f}"]],
        title="Kernel sweep: batched session vs per-point evaluation"))
