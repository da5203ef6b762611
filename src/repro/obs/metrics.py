"""Process-wide metrics registry: counters, gauges, histograms, probes.

Every perf PR so far had to hand-instrument the hot path to find its wins;
this registry makes the counters permanent and machine-readable.  Two kinds
of metric sources coexist:

* **owned metrics** — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  objects created through :func:`counter` / :func:`gauge` /
  :func:`histogram` and incremented at the instrumentation site (the
  relaxation loop's attempts and II bumps, the oracle pass/fail/crash
  tallies, the sweep session's full/delta split);
* **probes** — callables registered with :func:`register_probe` that *pull*
  an existing subsystem's ad-hoc counters at snapshot time (the
  :class:`~repro.core.analysis_cache.AnalysisCache` hit/miss tables).  A
  probe adopts a counter into the registry without touching its public
  accessors or adding a single instruction to the owning hot path.

:func:`snapshot` renders everything as one JSON-safe dict;
:func:`cache_stats` is the unified cache-introspection call covering the
analysis cache, the delta-slack seed cache and the library characterisation
memos.

Determinism: metrics are observation-only.  Nothing reads a metric to make
a scheduling/budgeting/binding decision, so results with a hot registry are
identical to results with a cold one.

Thread-safety: metric creation and snapshots are lock-protected; the
increment fast paths are plain ``+=`` on the owning object — atomic enough
under the GIL for monitoring counters, and free of locks on the hot path.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "register_probe",
    "snapshot",
    "reset",
    "cache_stats",
]


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Streaming summary statistics (count/total/min/max; no buckets).

    Designed for wall-time observations: the snapshot exposes count, total,
    mean and the extremes, which is what the per-oracle timing report and
    the phase profiles need, without per-observation storage.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": (self.total / self.count) if self.count else 0.0,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None


class MetricsRegistry:
    """A named collection of metrics plus snapshot-time probes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._probes: Dict[str, Callable[[], Dict[str, object]]] = {}

    # -- creation (idempotent; returns the shared instance) ----------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name)
            return metric

    def register_probe(self, name: str,
                       probe: Callable[[], Dict[str, object]]) -> None:
        """Adopt an external counter source; called once per probe name.

        The probe runs at snapshot time only, so it adds nothing to the
        owning subsystem's hot path.  A probe that raises reports its error
        string instead of breaking the snapshot.
        """
        with self._lock:
            self._probes[name] = probe

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe dict of every metric and probe, sorted by name."""
        with self._lock:
            counters = {name: metric.value
                        for name, metric in sorted(self._counters.items())}
            gauges = {name: metric.value
                      for name, metric in sorted(self._gauges.items())}
            histograms = {name: metric.summary()
                          for name, metric in sorted(self._histograms.items())}
            probes = dict(sorted(self._probes.items()))
        probe_values: Dict[str, object] = {}
        for name, probe in probes.items():
            try:
                probe_values[name] = probe()
            except Exception as exc:  # noqa: BLE001 — snapshots must not fail
                probe_values[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "probes": probe_values,
        }

    def reset(self) -> None:
        """Zero every owned metric (probes reflect their live sources)."""
        with self._lock:
            for table in (self._counters, self._gauges, self._histograms):
                for metric in table.values():
                    metric.reset()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry (one per process; pool workers get their
    own copy, exactly like the analysis cache)."""
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return _REGISTRY.histogram(name)


def register_probe(name: str,
                   probe: Callable[[], Dict[str, object]]) -> None:
    _REGISTRY.register_probe(name, probe)


def snapshot() -> Dict[str, object]:
    _ensure_builtin_probes()
    return _REGISTRY.snapshot()


def reset() -> None:
    _REGISTRY.reset()


# -- built-in probes + unified cache introspection -----------------------------

_builtin_probes_installed = False


def _analysis_cache_probe() -> Dict[str, object]:
    from repro.core.analysis_cache import default_cache

    cache = default_cache()
    info: Dict[str, object] = dict(cache.cache_info())
    info["delta_evaluators"] = cache.delta_evaluators
    info["delta_updates"] = cache.delta_updates
    return info


def _ensure_builtin_probes() -> None:
    """Register the adopting probes once (lazily, to keep imports acyclic)."""
    global _builtin_probes_installed
    if _builtin_probes_installed:
        return
    _builtin_probes_installed = True
    register_probe("analysis_cache", _analysis_cache_probe)


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
        "analysis_cache": _analysis_cache_probe(),
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
