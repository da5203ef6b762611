"""Process-wide metrics registry: counters and histograms.

Every perf PR so far had to hand-instrument the hot path to find its wins;
this registry makes the counters permanent and machine-readable.
:class:`Counter` and :class:`Histogram` objects are created through
:func:`counter` / :func:`histogram` and incremented at the instrumentation
site (the relaxation loop's attempts and II bumps, the oracle
pass/fail/crash tallies and timings, the sweep session's full/delta split).

:func:`snapshot` renders every metric as one JSON-safe dict (``repro verify``
and campaign shards read it); :func:`cache_stats` is the unified
cache-introspection call covering the analysis cache (read from its own
:meth:`~repro.core.analysis_cache.AnalysisCache.cache_info`), the
delta-slack seed cache, the JSONL stores and the serve layer's memo tier.

Determinism: metrics are observation-only.  Nothing reads a metric to make
a scheduling/budgeting/binding decision, so results with a hot registry are
identical to results with a cold one.

Thread-safety: every metric is lock-protected.  ``+=`` on an attribute is
a read-modify-write that a thread switch can split (the serve layer runs
jobs on a thread pool), so :meth:`Counter.inc` and
:meth:`Histogram.observe` each hold the metric's own lock; creation and
snapshots hold the registry's.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "histogram",
    "snapshot",
    "cache_stats",
]


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Streaming summary statistics (count/total/min/max; no buckets).

    Designed for wall-time observations: the snapshot exposes count, total,
    mean and the extremes, which is what the per-oracle timing report and
    the phase profiles need, without per-observation storage.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def summary(self) -> Dict[str, float]:
        with self._lock:
            return {
                "count": self.count,
                "total": self.total,
                "mean": (self.total / self.count) if self.count else 0.0,
                "min": self.min if self.min is not None else 0.0,
                "max": self.max if self.max is not None else 0.0,
            }


class MetricsRegistry:
    """A named collection of counters and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- creation (idempotent; returns the shared instance) ----------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name)
            return metric

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe dict of every metric, sorted by name."""
        with self._lock:
            return {
                "counters": {name: metric.value
                             for name, metric in sorted(self._counters.items())},
                "histograms": {name: metric.summary() for name, metric
                               in sorted(self._histograms.items())},
            }


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry (one per process; pool workers get their
    own copy, exactly like the analysis cache)."""
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def histogram(name: str) -> Histogram:
    return _REGISTRY.histogram(name)


def snapshot() -> Dict[str, object]:
    return _REGISTRY.snapshot()


# -- unified cache introspection -----------------------------------------------


def _analysis_cache_stats() -> Dict[str, object]:
    from repro.core.analysis_cache import default_cache

    cache = default_cache()
    info: Dict[str, object] = dict(cache.cache_info())
    info["delta_evaluators"] = cache.delta_evaluators
    info["delta_updates"] = cache.delta_updates
    return info


def cache_stats() -> Dict[str, Dict[str, object]]:
    """One call covering every cache layer in the process.

    * ``analysis_cache`` — every table of the process-wide
      :class:`~repro.core.analysis_cache.AnalysisCache` (``artifacts``,
      ``spans``, ``sequential_slack``, ``budget_templates`` and
      ``span_templates``, via :meth:`cache_info`) plus its delta-slack
      counters;
    * ``delta_seeds`` — hit/miss/insert tallies of the per-graph seed cache
      in :mod:`repro.core.delta_slack` (owned counters, incremented at the
      seed lookup);
    * ``jsonl_stores`` — lines the append-only JSONL loaders
      (:mod:`repro.core.jsonl`: result stores, corpora, trend histories)
      tolerated and dropped, plus records written through the locked
      append path.  A non-zero ``skipped_lines`` means some store on disk
      is corrupt or truncated — the per-store ``skipped_lines`` attributes
      and the campaign merge reports say which;
    * ``serve`` — the serve layer's shared memo tier
      (:class:`repro.serve.cache.MemoCache`): process-wide cache
      hit/miss/put tallies and the number of stale-line compactions its
      policy triggered.

    This is the single entry point behind the profile reports'
    cache-efficiency summary.
    """
    stats: Dict[str, Dict[str, object]] = {
        "analysis_cache": _analysis_cache_stats(),
        "delta_seeds": {
            "hits": counter("delta_seeds.hits").value,
            "misses": counter("delta_seeds.misses").value,
            "inserts": counter("delta_seeds.inserts").value,
        },
        "jsonl_stores": {
            "skipped_lines": counter("jsonl.skipped_lines").value,
            "appended_records": counter("jsonl.appended_records").value,
        },
        "serve": {
            "hits": counter("serve.cache.hits").value,
            "misses": counter("serve.cache.misses").value,
            "puts": counter("serve.cache.puts").value,
            "compactions": counter("serve.cache.compactions").value,
        },
    }
    return stats
