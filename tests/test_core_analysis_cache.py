"""The keyed analysis cache: identity, sharing, equivalence and bounds."""

from repro.core import analysis_cache
from repro.core.analysis_cache import (
    AnalysisCache,
    _LRUTable,
    default_cache,
    design_fingerprint,
)
from repro.core.opspan import OperationSpans
from repro.core.sequential_slack import compute_sequential_slack
from repro.core.timed_dfg import build_timed_dfg
from repro.flows.pipeline import PointArtifacts
from repro.workloads import fir_design, idct_design


def _delays(design, library):
    return {op.name: (library.fastest_variant(op).delay
                      if op.is_synthesizable else 0.0)
            for op in design.dfg.operations}


# -- design fingerprints ------------------------------------------------------------


def test_fingerprint_is_stable_across_rebuilds():
    a = idct_design(latency=8, rows=1, clock_period=1500.0)
    b = idct_design(latency=8, rows=1, clock_period=1500.0)
    assert a is not b
    assert design_fingerprint(a) == design_fingerprint(b)


def test_fingerprint_ignores_clock_and_pipelining():
    """Artifacts do not depend on the clock period or the II, so neither
    does the key — that is what lets sweep points share bundles."""
    a = idct_design(latency=8, rows=1, clock_period=1500.0)
    b = idct_design(latency=8, rows=1, clock_period=900.0, pipeline_ii=4)
    assert design_fingerprint(a) == design_fingerprint(b)


def test_fingerprint_distinguishes_structures():
    base = idct_design(latency=8, rows=1, clock_period=1500.0)
    assert design_fingerprint(base) != design_fingerprint(
        idct_design(latency=12, rows=1, clock_period=1500.0))
    assert design_fingerprint(base) != design_fingerprint(
        idct_design(latency=8, rows=2, clock_period=1500.0))
    assert design_fingerprint(base) != design_fingerprint(
        idct_design(latency=8, rows=1, width=24, clock_period=1500.0))


def test_fingerprint_detects_structural_growth_after_stamping():
    """The stamped fingerprint is revalidated against an O(1) shape token:
    adding an operation after first use must yield a new identity (and thus
    a correct cache miss), not a stale hit."""
    from repro.ir.operations import OpKind

    design = fir_design(taps=6, latency=4, clock_period=1500.0)
    before = design_fingerprint(design)
    edge = design.cfg.edge_names[0]
    design.dfg.add_op("late_addition", OpKind.ADD, width=16, birth_edge=edge)
    after = design_fingerprint(design)
    assert after != before
    cache = AnalysisCache()
    grown = cache.artifacts(design)
    assert "late_addition" in grown.spans.all_spans()


# -- artifact sharing ---------------------------------------------------------------


def test_structurally_identical_designs_share_artifacts():
    cache = AnalysisCache()
    first = cache.artifacts(idct_design(latency=8, rows=1, clock_period=1500.0))
    second = cache.artifacts(idct_design(latency=8, rows=1, clock_period=900.0))
    assert first is second
    info = cache.cache_info()["artifacts"]
    assert info["hits"] == 1 and info["misses"] == 1


def test_cached_artifacts_equal_fresh_ones():
    design = fir_design(taps=6, latency=4, clock_period=1500.0)
    cached = AnalysisCache().artifacts(design)
    fresh = PointArtifacts.build(design)
    assert cached.spans.all_spans() == fresh.spans.all_spans()
    assert (cached.latency.forward_edge_names
            == fresh.latency.forward_edge_names)
    assert ([(e.src, e.dst, e.weight) for e in cached.timed.edges]
            == [(e.src, e.dst, e.weight) for e in fresh.timed.edges])


# -- pinned spans + timed DFG -------------------------------------------------------


def test_pinned_spans_hit_on_replayed_prefixes():
    cache = AnalysisCache()
    design = fir_design(taps=6, latency=4, clock_period=1500.0)
    artifacts = PointArtifacts.build(design)
    latency = artifacts.latency
    edges = latency.forward_edge_names
    some_op = next(op.name for op in design.dfg.operations
                   if op.is_synthesizable)
    pinned = {some_op: edges[0]}
    first = cache.pinned_spans_and_timed(artifacts, pinned, edges[1])
    again = cache.pinned_spans_and_timed(artifacts, dict(pinned), edges[1])
    assert first[0] is again[0] and first[1] is again[1]
    other = cache.pinned_spans_and_timed(artifacts, pinned, edges[2])
    assert other[0] is not first[0]

    fresh = OperationSpans(design, latency=latency, pinned=pinned,
                           not_before=edges[1])
    assert first[0].all_spans() == fresh.all_spans()


# -- sequential slack ---------------------------------------------------------------


def test_cached_slack_equals_direct_computation(library):
    cache = AnalysisCache()
    design = fir_design(taps=6, latency=4, clock_period=1500.0)
    timed = build_timed_dfg(design)
    delays = _delays(design, library)
    for aligned in (False, True):
        direct = compute_sequential_slack(timed, delays, 1500.0, aligned=aligned)
        via_cache = cache.sequential_slack(timed, delays, 1500.0, aligned=aligned)
        assert via_cache.arrival == direct.arrival
        assert via_cache.required == direct.required
        assert via_cache.slack == direct.slack
        # Second call with an equal (but distinct) delay map is a hit.
        assert cache.sequential_slack(timed, dict(delays), 1500.0,
                                      aligned=aligned) is via_cache
    info = cache.cache_info()["sequential_slack"]
    assert info["hits"] == 2 and info["misses"] == 2


def test_slack_keys_include_period_alignment_and_delays(library):
    cache = AnalysisCache()
    design = fir_design(taps=6, latency=4, clock_period=1500.0)
    timed = build_timed_dfg(design)
    delays = _delays(design, library)
    base = cache.sequential_slack(timed, delays, 1500.0)
    assert cache.sequential_slack(timed, delays, 1200.0) is not base
    assert cache.sequential_slack(timed, delays, 1500.0, aligned=True) is not base
    bumped = dict(delays)
    bumped[next(iter(bumped))] += 1.0
    assert cache.sequential_slack(timed, bumped, 1500.0) is not base


# -- bounds + management ------------------------------------------------------------


def test_lru_eviction_is_bounded_and_counted():
    table = _LRUTable("sequential_slack", 2)
    for period in (1000.0, 1100.0, 1200.0, 1300.0):
        table.get_or_build(period, lambda: object())
    info = table.info()
    assert info["size"] == 2
    assert info["evictions"] == 2
    # The most recent entries are resident; the oldest was evicted.
    table.get_or_build(1300.0, lambda: object())
    assert table.info()["hits"] == 1


def test_clear_empties_every_table():
    cache = AnalysisCache()
    cache.artifacts(idct_design(latency=8, rows=1, clock_period=1500.0))
    cache.clear()
    assert all(table["size"] == 0 for table in cache.cache_info().values())


def test_default_cache_is_process_wide():
    assert default_cache() is default_cache()


def test_slack_scheduler_routes_all_lookups_through_injected_cache(
        monkeypatch, library):
    """The process-wide cache must actually back the scheduler's budgeting
    and span rebuilds: no hot path keeps a memo of its own."""
    from repro.core.slack_scheduler import SlackScheduler
    from repro.workloads import interpolation_design

    cache = AnalysisCache()
    monkeypatch.setattr(analysis_cache, "_default_cache", cache)
    result = SlackScheduler(interpolation_design(), library, 1100.0).run()
    assert result.schedule.is_complete()
    info = cache.cache_info()
    assert info["artifacts"]["misses"] == 1
    assert info["sequential_slack"]["misses"] > 0
    assert info["budget_templates"]["misses"] == 1
    assert info["span_templates"]["misses"] >= 1
    assert cache.delta_evaluators > 0


def test_clear_drops_every_table_including_the_templates(monkeypatch,
                                                         library):
    """The cache owns every process-wide memo: one ``clear()`` empties the
    templates too, so the same flow on the same design misses them again."""
    from repro.flows import slack_based_flow
    from repro.workloads import interpolation_design

    monkeypatch.setattr(analysis_cache, "_default_cache", AnalysisCache())
    design = interpolation_design()
    slack_based_flow(design, library, clock_period=1100.0)
    first = default_cache().cache_info()
    assert set(first) == {"artifacts", "spans", "sequential_slack",
                          "budget_templates", "span_templates"}
    templates = ("budget_templates", "span_templates")
    assert all(first[table]["misses"] > 0 for table in templates)
    assert all(first[table]["hits"] > 0 for table in templates)

    default_cache().clear()
    assert all(info["size"] == 0
               for info in default_cache().cache_info().values())
    slack_based_flow(design, library, clock_period=1100.0)
    again = default_cache().cache_info()
    for table in templates:
        assert again[table]["misses"] == 2 * first[table]["misses"], table
