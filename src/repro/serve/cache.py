"""The service's shared memoization tier: a counting :class:`ResultStore`.

Every evaluation the service performs goes through
:func:`repro.explore.store.memoized_run` over one :class:`MemoCache` — a
:class:`repro.explore.store.ResultStore` keyed by design fingerprint plus
the non-structural knobs (clock period, initiation interval, margin — see
:func:`repro.explore.store.key_for`).  The cache is deliberately shared
across tenants and job kinds: a scenario submitted by one tenant, a sweep
point of another and an exploration wave all resolve against the same
records, which is what makes a re-submitted design complete with zero new
flow evaluations.

Repeat traffic is exactly what exposes the store's append-only growth bug:
every re-``record`` of an existing key appends a fresh line while the index
stays flat.  The cache therefore watches its
:attr:`~repro.core.jsonl.KeyedStore.stale_lines` and triggers its
byte-stable :meth:`~repro.core.jsonl.KeyedStore.compact` once the
superseded backlog crosses ``compact_after`` — bounding the file at
``live + compact_after`` lines however hot the service runs.

It also remembers each job fingerprint's store keys for its lifetime (not
persisted), so a resubmitted payload is keyed without building a design; a
point's key is a pure function of the payload (factories are deterministic).

Telemetry (observation only): ``serve.cache.hits`` / ``misses`` / ``puts``
/ ``compactions`` / ``keys_reused`` counters, surfaced through
:func:`repro.obs.metrics.cache_stats` under the ``"serve"`` section.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.explore.store import ResultStore, StoreKey
from repro.obs.metrics import counter as _obs_counter

_HITS = _obs_counter("serve.cache.hits")
_MISSES = _obs_counter("serve.cache.misses")
_PUTS = _obs_counter("serve.cache.puts")
_COMPACTIONS = _obs_counter("serve.cache.compactions")
_KEYS_REUSED = _obs_counter("serve.cache.keys_reused")


class MemoCache(ResultStore):
    """A :class:`ResultStore` that counts its memo traffic and self-compacts.

    Parameters
    ----------
    path:
        JSONL file backing the store (``None``: in-memory, still memoizing
        within the process).
    compact_after:
        Stale-line threshold that triggers compaction after a record
        (``None`` disables; in-memory stores never compact).
    """

    def __init__(self, path: Optional[str] = None,
                 compact_after: Optional[int] = 256):
        super().__init__(path)
        self.compact_after = compact_after
        #: Per-instance tallies (the counters above are process-wide).
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.compactions = 0
        self.keys_reused = 0
        self._job_keys: Dict[str, List[StoreKey]] = {}

    def lookup(self, key: StoreKey) -> Optional[Dict[str, object]]:
        """The memoized metrics under ``key``, counting the hit or miss."""
        metrics = super().lookup(key)
        if metrics is not None:
            self.hits += 1
            _HITS.inc()
        else:
            self.misses += 1
            _MISSES.inc()
        return metrics

    def record(self, key: StoreKey, metrics: Mapping[str, object],
               workload: str = "") -> Dict[str, object]:
        """Store one evaluation and compact if the backlog crossed the bar."""
        record = super().record(key, metrics, workload=workload)
        self.puts += 1
        _PUTS.inc()
        if (self.compact_after is not None and self.path is not None
                and self.stale_lines >= self.compact_after):
            self.compact()
            self.compactions += 1
            _COMPACTIONS.inc()
        return record

    def remembered_keys(self, fingerprint: str) -> Optional[List[StoreKey]]:
        """Job ``fingerprint``'s remembered store keys (counted), or ``None``."""
        keys = self._job_keys.get(fingerprint)
        if keys is not None:
            self.keys_reused += len(keys)
            _KEYS_REUSED.inc(len(keys))
        return keys

    def remember_keys(self, fingerprint: str, keys: List[StoreKey]) -> None:
        """Remember job ``fingerprint``'s store keys, in its points' order."""
        self._job_keys[fingerprint] = keys

    def stats(self) -> Dict[str, object]:
        """This cache's JSON-safe tallies (instance-local, not process-wide)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "compactions": self.compactions,
            "keys_reused": self.keys_reused,
            "records": len(self),
            "stale_lines": self.stale_lines,
        }
