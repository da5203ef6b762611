#!/usr/bin/env python3
"""Adaptive Pareto exploration of the IDCT latency/area design space.

Demonstrates the exploration layer end to end:

1. run an **adaptive** exploration (coarse grid + guided bisection) of the
   IDCT latency axis through ``SweepSession.run``, persisting every evaluated
   point to a JSONL result store,
2. run the **dense** grid over the same store — every point the adaptive
   pass already evaluated is restored for free,
3. compare the two frontiers (epsilon coverage, hypervolume), print the
   knee point, and diff the slack-based frontier against the conventional
   one.

Run with:  python examples/explore_pareto.py [rows] [lo:hi]
where ``rows`` (default 1) scales the IDCT and ``lo:hi`` (default 8:32)
is the latency range.  The store lives in a temporary directory; pass a
path as the third argument to keep it across runs.
"""

import sys
import tempfile
import os

from repro.explore import (
    AdaptiveExplorer,
    ResultStore,
    compare_flows,
    compare_frontiers,
)
from repro.explore.report import frontier_report, frontier_text_table, render_markdown
from repro.lib import tsmc90_library
from repro.workloads import IDCTPointFactory

CLOCK_PERIOD = 1500.0
EPSILON = (2.0, ("rel", 0.08))  # 2 latency states, 8 % area


def main():
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    lo, hi = (int(part) for part in (sys.argv[2] if len(sys.argv) > 2
                                     else "8:32").split(":"))
    store_path = sys.argv[3] if len(sys.argv) > 3 else os.path.join(
        tempfile.mkdtemp(prefix="repro-pareto-"), "idct.jsonl")

    library = tsmc90_library()
    factory = IDCTPointFactory(rows=rows)
    latencies = range(lo, hi + 1)
    workload = f"idct_r{rows}"

    print(f"Adaptive exploration of IDCT rows={rows}, latencies {lo}..{hi}, "
          f"T={CLOCK_PERIOD:.0f} ps (store: {store_path})")
    adaptive = AdaptiveExplorer(factory, library, latencies,
                                clock_period=CLOCK_PERIOD,
                                store=ResultStore(store_path),
                                workload=workload).explore()
    print(frontier_text_table(adaptive, title="Adaptive frontier"))
    print(f"  engine evaluations: {adaptive.engine_evaluations} "
          f"({adaptive.flow_runs} flow runs) in {adaptive.waves} wave(s)\n")

    print("Dense grid over the same store (adaptive points restore for free):")
    dense = AdaptiveExplorer(factory, library, latencies,
                             clock_period=CLOCK_PERIOD,
                             store=ResultStore(store_path),
                             workload=workload).explore_dense()
    print(frontier_text_table(dense, title="Dense frontier"))
    print(f"  engine evaluations: {dense.engine_evaluations}, "
          f"restored from store: {dense.restored}\n")

    diff = compare_frontiers(adaptive.front, dense.front, epsilon=EPSILON,
                             name_a="adaptive", name_b="dense")
    total_dense = dense.engine_evaluations + dense.restored
    print(f"Adaptive recovered {100.0 * diff.coverage_ab:.0f}% of the dense "
          f"frontier within epsilon using {adaptive.engine_evaluations} of "
          f"{total_dense} evaluations "
          f"({total_dense / max(adaptive.engine_evaluations, 1):.1f}x fewer).")
    print(f"Knee of the dense frontier: {dense.knee().label}, "
          f"hypervolumes adaptive/dense: "
          f"{diff.hypervolume_a:.4g} / {diff.hypervolume_b:.4g}\n")

    flows_diff = compare_flows(list(dense.curve.values()))
    print(f"Slack-based vs conventional frontier: hypervolume ratio "
          f"{flows_diff.hypervolume_ratio:.3f}, "
          f"{len(flows_diff.only_in_a)} point(s) only reachable by the "
          f"slack-based flow.\n")

    print("Markdown report of the adaptive exploration:\n")
    print(render_markdown(frontier_report(adaptive, baseline=dense,
                                          epsilon=EPSILON)))


if __name__ == "__main__":
    main()
