"""Phase profiling: aggregate span forests into per-phase breakdowns.

The flows are instrumented with a small, stable span vocabulary (see
:data:`PHASE_OF`): scheduling, binding/datapath construction, state timing,
area recovery, delta-slack evaluation, report generation, and the per-point
envelope spans of the sweep session.  This module turns a recorded span
forest into:

* **per-phase totals** — the *self time* of every span, grouped by phase.
  Self time (duration minus direct children) partitions a root span's
  duration exactly, so the per-phase totals of a fully nested trace sum to
  the end-to-end traced wall time — no double counting, no gaps beyond
  untraced code outside the roots;
* **per-span-name aggregates** — count, total and self time per distinct
  span name, with a top-N list by self time (where did the 3.4 s actually
  go);
* a **cache-efficiency summary** folded in from
  :func:`repro.obs.metrics.cache_stats`.

Reports render as a JSON-safe dict (:func:`profile_report`) and as
markdown (:func:`format_profile_markdown`); the CLI's ``repro profile``
prints the markdown and can write the JSON/Chrome exports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.trace import Span

__all__ = [
    "PHASE_OF",
    "SpanStat",
    "aggregate_spans",
    "phase_totals",
    "profile_report",
    "format_profile_markdown",
]

#: Span-name → phase label.  Span names not listed here report under the
#: ``"other"`` phase (their envelope self-time: interning, fingerprinting,
#: factory elaboration, result assembly).
PHASE_OF: Dict[str, str] = {
    "flow.schedule": "schedule",
    "sched.attempt": "schedule",
    "sched.rebudget": "schedule",
    "flow.bind": "bind",
    "flow.timing": "timing",
    "flow.area_recovery": "area-recovery",
    "flow.report": "report",
    "delta.seed_kernels": "delta-eval",
    "oracle.run": "verify",
    "lib.build": "library",
}

_OTHER_PHASE = "other"


@dataclass
class SpanStat:
    """Aggregate of every span sharing one name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0

    @property
    def phase(self) -> str:
        return PHASE_OF.get(self.name, _OTHER_PHASE)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "phase": self.phase,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "self_seconds": self.self_seconds,
        }


def aggregate_spans(roots: Sequence[Span]) -> Dict[str, SpanStat]:
    """Per-name aggregates over a span forest (every span, all depths)."""
    stats: Dict[str, SpanStat] = {}
    for root in roots:
        for span_obj in root.walk():
            stat = stats.get(span_obj.name)
            if stat is None:
                stat = stats[span_obj.name] = SpanStat(span_obj.name)
            stat.count += 1
            stat.total_seconds += span_obj.duration
            stat.self_seconds += span_obj.self_time
    return stats


def phase_totals(stats: Dict[str, SpanStat]) -> Dict[str, float]:
    """Self-time per phase.  Because self times partition each root span,
    these totals sum to the summed duration of the root spans exactly."""
    totals: Dict[str, float] = {}
    for stat in stats.values():
        totals[stat.phase] = totals.get(stat.phase, 0.0) + stat.self_seconds
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def profile_report(
    roots: Sequence[Span],
    wall_seconds: Optional[float] = None,
    top: int = 10,
    cache_summary: Optional[Dict[str, Dict[str, object]]] = None,
) -> Dict[str, object]:
    """The JSON-safe phase-breakdown report of a span forest.

    ``wall_seconds`` is the caller-measured end-to-end wall time (e.g.
    around a ``session.run``); the report records the traced fraction so the
    5 %-coverage acceptance bar is checkable from the artifact itself.
    ``cache_summary`` defaults to a live :func:`repro.obs.metrics.cache_stats`
    call.
    """
    if cache_summary is None:
        from repro.obs.metrics import cache_stats

        cache_summary = cache_stats()
    stats = aggregate_spans(roots)
    phases = phase_totals(stats)
    traced_seconds = sum(root.duration for root in roots)
    by_self = sorted(stats.values(), key=lambda s: (-s.self_seconds, s.name))
    report: Dict[str, object] = {
        "traced_seconds": traced_seconds,
        "wall_seconds": wall_seconds if wall_seconds is not None
        else traced_seconds,
        "coverage": (traced_seconds / wall_seconds
                     if wall_seconds else 1.0),
        "root_spans": len(roots),
        "span_count": sum(stat.count for stat in stats.values()),
        "phases": phases,
        "top_spans": [stat.as_dict() for stat in by_self[:max(top, 0)]],
        "spans": {name: stat.as_dict()
                  for name, stat in sorted(stats.items())},
        "caches": cache_summary,
    }
    return report


def _cache_efficiency_rows(caches: Dict[str, Dict[str, object]]) -> List[List[str]]:
    rows: List[List[str]] = []
    analysis = caches.get("analysis_cache", {})
    for table, info in analysis.items():
        if not isinstance(info, dict):
            continue  # the delta-slack counters
        hits = int(info.get("hits", 0))
        misses = int(info.get("misses", 0))
        rows.append([f"analysis_cache.{table}", str(hits), str(misses),
                     _hit_rate(hits, misses)])
    seeds = caches.get("delta_seeds", {})
    if seeds:
        hits = int(seeds.get("hits", 0))
        misses = int(seeds.get("misses", 0))
        rows.append(["delta_seeds", str(hits), str(misses),
                     _hit_rate(hits, misses)])
    return rows


def _hit_rate(hits: int, misses: int) -> str:
    lookups = hits + misses
    return f"{100.0 * hits / lookups:.1f} %" if lookups else "n/a"


def format_profile_markdown(report: Dict[str, object],
                            title: str = "Phase profile") -> str:
    """Render a :func:`profile_report` dict as a markdown report."""
    from repro.flows.report import format_markdown_table

    wall = float(report["wall_seconds"])  # type: ignore[arg-type]
    traced = float(report["traced_seconds"])  # type: ignore[arg-type]
    lines: List[str] = [
        f"# {title}",
        "",
        f"end-to-end wall time: {wall:.3f} s; traced: {traced:.3f} s "
        f"({100.0 * float(report['coverage']):.1f} % coverage, "  # type: ignore[arg-type]
        f"{report['root_spans']} root span(s), "
        f"{report['span_count']} span(s))",
        "",
    ]
    phases: Dict[str, float] = report["phases"]  # type: ignore[assignment]
    phase_rows = [
        [phase, f"{seconds:.4f}",
         f"{100.0 * seconds / traced:.1f} %" if traced else "n/a"]
        for phase, seconds in phases.items()
    ]
    phase_rows.append(["total", f"{sum(phases.values()):.4f}",
                       "100.0 %" if traced else "n/a"])
    lines.append(format_markdown_table(
        ["phase", "self time (s)", "share"], phase_rows))
    lines.append("")
    top_rows = [
        [str(stat["name"]), str(stat["phase"]), str(stat["count"]),
         f"{float(stat['total_seconds']):.4f}",  # type: ignore[arg-type]
         f"{float(stat['self_seconds']):.4f}"]  # type: ignore[arg-type]
        for stat in report["top_spans"]  # type: ignore[union-attr]
    ]
    if top_rows:
        lines.append(format_markdown_table(
            ["span", "phase", "count", "total (s)", "self (s)"], top_rows))
        lines.append("")
    cache_rows = _cache_efficiency_rows(report.get("caches", {}))  # type: ignore[arg-type]
    if cache_rows:
        lines.append(format_markdown_table(
            ["cache", "hits", "misses", "hit rate"], cache_rows))
        lines.append("")
    return "\n".join(lines)
