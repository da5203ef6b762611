"""The service's shared memoization tier over the persistent result store.

Every evaluation the service performs first consults a
:class:`repro.explore.store.ResultStore` keyed by design fingerprint plus
the non-structural knobs (clock period, initiation interval, margin — see
:func:`repro.explore.store.key_for`).  The cache is deliberately shared
across tenants and job kinds: a scenario submitted by one tenant, a sweep
point of another and an exploration wave all resolve against the same
records, which is what makes a re-submitted design complete with zero new
flow evaluations.

Repeat traffic is exactly what exposes the store's append-only growth bug:
every re-``put`` of an existing key appends a fresh line while the index
stays flat.  The cache therefore watches the store's
:attr:`~repro.core.jsonl.KeyedStore.stale_lines` and triggers its
byte-stable :meth:`~repro.core.jsonl.KeyedStore.compact` once the
superseded backlog crosses ``compact_after`` — bounding the file at
``live + compact_after`` lines however hot the service runs.

Telemetry (observation only): ``serve.cache.hits`` / ``misses`` / ``puts``
/ ``compactions`` counters, surfaced through
:func:`repro.obs.metrics.cache_stats` under the ``"serve"`` section.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.explore.store import ResultStore, StoreKey, key_for
from repro.obs.metrics import counter as _obs_counter

_HITS = _obs_counter("serve.cache.hits")
_MISSES = _obs_counter("serve.cache.misses")
_PUTS = _obs_counter("serve.cache.puts")
_COMPACTIONS = _obs_counter("serve.cache.compactions")


class MemoCache:
    """A counting, self-compacting façade over one :class:`ResultStore`.

    Parameters
    ----------
    path:
        JSONL file backing the store (``None``: in-memory, still memoizing
        within the process).  Ignored when ``store`` is given.
    store:
        An existing store to adopt (the explore layer's, a campaign
        shard's...).
    compact_after:
        Stale-line threshold that triggers compaction after a put
        (``None`` disables; in-memory stores never compact).
    """

    def __init__(self, path: Optional[str] = None,
                 store: Optional[ResultStore] = None,
                 compact_after: Optional[int] = 256):
        self.store = store if store is not None else ResultStore(path)
        self.compact_after = compact_after
        #: Per-instance tallies (the counters above are process-wide).
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.compactions = 0

    def key(self, design, point, margin_fraction: float,
            scheduling: str = "block") -> StoreKey:
        """The memo key of one evaluation (see :func:`key_for`)."""
        return key_for(design, point, margin_fraction, scheduling=scheduling)

    def lookup(self, key: StoreKey) -> Optional[Dict[str, object]]:
        """The memoized metrics under ``key``, counting the hit or miss."""
        metrics = self.store.get_metrics(key)
        if metrics is not None:
            self.hits += 1
            _HITS.inc()
        else:
            self.misses += 1
            _MISSES.inc()
        return metrics

    def record(self, key: StoreKey, metrics: Mapping[str, object],
               workload: str = "",
               point: Optional[Mapping[str, object]] = None) -> None:
        """Store one evaluation and compact if the backlog crossed the bar."""
        self.store.put(key, metrics, workload=workload, point=point)
        self.puts += 1
        _PUTS.inc()
        self.maybe_compact()

    def maybe_compact(self) -> bool:
        """Compact the backing file when its stale backlog is large enough."""
        if (self.compact_after is None or self.store.path is None
                or self.store.stale_lines < self.compact_after):
            return False
        self.store.compact()
        self.compactions += 1
        _COMPACTIONS.inc()
        return True

    def stats(self) -> Dict[str, object]:
        """This cache's JSON-safe tallies (instance-local, not process-wide)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "compactions": self.compactions,
            "records": len(self.store),
            "stale_lines": self.store.stale_lines,
        }
