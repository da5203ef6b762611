"""Tests of phase aggregation and the profile report (repro.obs.profile)."""

import json

import pytest

from repro.obs.profile import (
    PHASE_OF,
    aggregate_spans,
    format_profile_markdown,
    phase_totals,
    profile_report,
)
from repro.obs.trace import Span


def forest():
    """Two hand-built point trees with known durations (seconds)."""
    def tree(offset):
        root = Span("sweep.point", start=offset, end=offset + 1.0)
        schedule = Span("flow.schedule", start=offset + 0.0,
                        end=offset + 0.6)
        bind = Span("flow.bind", start=offset + 0.6, end=offset + 0.8)
        timing = Span("flow.timing", start=offset + 0.8, end=offset + 0.9)
        seed = Span("delta.seed_kernels", start=offset + 0.1,
                    end=offset + 0.3)
        schedule.children.append(seed)
        root.children.extend([schedule, bind, timing])
        return root

    return [tree(0.0), tree(2.0)]


def test_aggregate_counts_totals_and_self_times():
    stats = aggregate_spans(forest())
    assert stats["sweep.point"].count == 2
    assert stats["flow.schedule"].total_seconds == pytest.approx(1.2)
    # Schedule self time excludes the nested seed kernels.
    assert stats["flow.schedule"].self_seconds == pytest.approx(0.8)
    assert stats["delta.seed_kernels"].self_seconds == pytest.approx(0.4)


def test_phase_totals_partition_the_root_durations_exactly():
    totals = phase_totals(aggregate_spans(forest()))
    assert totals["schedule"] == pytest.approx(0.8)
    assert totals["delta-eval"] == pytest.approx(0.4)
    assert totals["bind"] == pytest.approx(0.4)
    assert totals["timing"] == pytest.approx(0.2)
    # The envelope (sweep.point minus its children) lands in "other".
    assert totals["other"] == pytest.approx(0.2)
    assert sum(totals.values()) == pytest.approx(2.0)  # = summed root durations
    # Sorted by descending self time.
    values = list(totals.values())
    assert values == sorted(values, reverse=True)


def test_unknown_span_names_report_under_other():
    assert PHASE_OF.get("no.such.span") is None
    stats = aggregate_spans([Span("no.such.span", start=0.0, end=1.0)])
    assert phase_totals(stats) == {"other": pytest.approx(1.0)}


def test_profile_report_fields_and_coverage():
    caches = {"analysis_cache": {}, "delta_seeds": {}}
    report = profile_report(forest(), wall_seconds=2.1, top=3,
                            cache_summary=caches)
    assert report["traced_seconds"] == pytest.approx(2.0)
    assert report["wall_seconds"] == 2.1
    assert report["coverage"] == pytest.approx(2.0 / 2.1)
    assert report["root_spans"] == 2
    assert report["span_count"] == 10
    assert len(report["top_spans"]) == 3
    # Top spans are ordered by self time, descending.
    selfs = [s["self_seconds"] for s in report["top_spans"]]
    assert selfs == sorted(selfs, reverse=True)
    json.dumps(report)  # JSON-safe by construction
    # The 5 % acceptance bar is checkable from the artifact itself.
    assert abs(sum(report["phases"].values()) - report["traced_seconds"]) \
        <= 0.05 * report["wall_seconds"]


def test_profile_report_defaults_wall_to_traced():
    report = profile_report(forest(), cache_summary={})
    assert report["wall_seconds"] == report["traced_seconds"]
    assert report["coverage"] == 1.0


def test_markdown_report_renders_phases_spans_and_caches():
    caches = {
        "analysis_cache": {
            "artifacts": {"hits": 3, "misses": 1},
            "spans": {"hits": 0, "misses": 0},
            "sequential_slack": {"hits": 1, "misses": 3},
            "budget_templates": {"hits": 9, "misses": 1},
            "delta_evaluators": 5,
        },
        "delta_seeds": {"hits": 8, "misses": 2, "inserts": 2},
    }
    report = profile_report(forest(), wall_seconds=2.0, cache_summary=caches)
    text = format_profile_markdown(report, title="Test profile")
    assert text.startswith("# Test profile")
    assert "schedule" in text and "delta-eval" in text
    assert "flow.schedule" in text
    assert "delta_seeds" in text and "80.0 %" in text  # 8/(8+2)
    assert "analysis_cache.artifacts" in text and "75.0 %" in text
    # Every table the cache reports gets a row; its counters do not.
    assert "analysis_cache.budget_templates" in text and "90.0 %" in text
    assert "delta_evaluators" not in text
    assert "n/a" in text  # zero-lookup table renders n/a, not a ZeroDivision
    assert "100.0 % coverage" in text


def test_live_cache_summary_is_pulled_when_omitted():
    report = profile_report(forest())
    assert set(report["caches"]) \
        == {"analysis_cache", "delta_seeds", "jsonl_stores", "serve"}
