#!/usr/bin/env python3
"""Reproduce the paper's Table 4: IDCT design-space exploration.

Sweeps the 15 latency/pipelining design points of the paper (latencies 32
down to 8 states, pipelined and not), runs the conventional and the
slack-based flow on each, and prints the per-point area comparison, the
average saving and the Section VII exploration ranges.  A point whose flow
fails is listed after the table instead of ending the sweep.

Run with:  python examples/idct_dse.py [rows] [workers]
where ``rows`` (default 2, paper scale 8) is the number of 8-point row
transforms per design and ``workers`` (default: one per CPU) is the size of
the process pool the points fan out over.
"""

import os
import sys

from repro.flows import SweepSession, format_table, idct_design_points, table4_rows
from repro.lib import tsmc90_library
from repro.workloads import IDCTPointFactory

CLOCK_PERIOD = 1500.0


def main():
    rows_per_design = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else (os.cpu_count() or 1)
    library = tsmc90_library()
    points = idct_design_points(clock_period=CLOCK_PERIOD)

    print(f"Running {len(points)} design points (IDCT rows={rows_per_design}, "
          f"T={CLOCK_PERIOD:.0f} ps) through both flows on {workers} "
          f"worker(s) ...")
    session = SweepSession(IDCTPointFactory(rows=rows_per_design), library)
    result = session.run(points, workers=workers)

    if result.entries:
        header, rows = table4_rows(result)
        print()
        print(format_table(header, rows, title="Table 4. Area savings for "
                                               "timing-based approach"))
        print()
        print(f"Average saving : {result.average_saving_percent():.1f}%  (paper: 8.9%)")
        print(f"Wins / losses  : {result.wins()} / {result.losses()}  (paper: 12 / 3)")
        print(f"Power range    : {result.power_range():.1f}x   (paper: ~20x)")
        print(f"Throughput range: {result.throughput_range():.1f}x  (paper: ~7x)")
        print(f"Area range     : {result.area_range():.2f}x  (paper: ~1.5x)")
    if result.failures:
        print()
        print(f"Failed points ({len(result.failures)} of {len(points)}):")
        for failure in result.failures:
            print(f"  {failure.point.name:<4} {failure.error}")
    print(f"Total wall time: {result.wall_time_seconds:.1f} s")


if __name__ == "__main__":
    main()
