"""Observability overhead: the Table-4 sweep, untraced and traced.

Two contracts from the ``repro.obs`` design, both pinned here:

* **near-zero overhead when disabled** — the untraced sweep pays one global
  read and one identity test per instrumented call site.  The untraced
  benchmark enters the perf-regression gate (``check_timings.py``), so an
  instrumentation site that starts allocating or reading clocks on the
  disabled path fails CI as a perf regression.
* **observation only** — with tracing *enabled*, every per-point metrics
  dict must stay byte-identical to the committed golden Table-4 file: span
  recording may cost time but must never change a result.  The traced
  benchmark also checks the profiling acceptance bar: recorded spans cover
  at least 95 % of the sweep's end-to-end wall time, and the per-phase
  self-time totals partition the traced time exactly.

Both benchmarks start from cold process-wide caches (the ``cold_caches``
fixture), so the pair measures tracing, not which one ran first.
"""

import json
import os

import pytest

from conftest import idct_rows
from repro.flows import SweepSession, idct_design_points
from repro.obs.profile import aggregate_spans, phase_totals
from repro.obs.trace import is_enabled, tracing
from repro.workloads import IDCTPointFactory

CLOCK = 1500.0
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_table4_metrics.json")


def _table4_sweep(library):
    session = SweepSession(IDCTPointFactory(rows=idct_rows()), library)
    return session.run(idct_design_points(clock_period=CLOCK))


def test_sweep_tracing_disabled(benchmark, library, cold_caches):
    """Untraced sweep on the no-op fast path, gated against the baseline."""
    assert not is_enabled()
    result = benchmark.pedantic(lambda: _table4_sweep(library),
                                rounds=1, iterations=1)
    assert len(result.entries) == 15


def test_sweep_tracing_enabled_matches_golden(benchmark, library,
                                             cold_caches):
    """Traced sweep: golden byte-identity plus the span-coverage bar."""

    def traced_sweep():
        with tracing() as tracer:
            result = _table4_sweep(library)
        return result, tracer

    result, tracer = benchmark.pedantic(traced_sweep, rounds=1, iterations=1)
    roots = tracer.roots
    assert roots, "tracing was enabled but recorded no spans"
    traced_seconds = sum(root.duration for root in roots)
    benchmark.extra_info["traced_seconds"] = round(traced_seconds, 3)
    benchmark.extra_info["span_count"] = sum(
        1 for root in roots for _ in root.walk())
    # Acceptance bar: the span forest accounts for >= 95 % of the sweep's
    # end-to-end wall time, and phase self-times partition it exactly.
    assert traced_seconds >= 0.95 * result.wall_time_seconds
    totals = phase_totals(aggregate_spans(roots))
    assert abs(sum(totals.values()) - traced_seconds) \
        <= 0.05 * max(result.wall_time_seconds, 1e-9)

    if idct_rows() != 2:
        pytest.skip("golden metrics are recorded for the default "
                    "REPRO_IDCT_ROWS=2 sweep")
    if not os.path.exists(GOLDEN_PATH):
        pytest.skip("no golden metrics file to compare against")
    metrics = json.loads(json.dumps(
        [entry.metrics() for entry in result.entries]))
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert metrics == golden, (
        "tracing changed a flow result: the traced sweep's metrics drifted "
        "from the committed golden file — spans/metrics must stay "
        "observation-only"
    )
