"""Persistent, fingerprint-keyed result store for exploration sweeps.

Format
------

A store is one **append-only JSONL file**: one JSON object per line, written
with ``sort_keys`` so lines are reproducible.  Each record is::

    {"schema": 1,
     "workload": "<free-form workload tag>",
     "key": {"fingerprint": "<design_fingerprint sha256>",
             "clock_period": 1500.0,
             "pipeline_ii": null,
             "margin_fraction": 0.05},
     "point": {"name": ..., "latency": ..., "pipeline_ii": ..., "clock_period": ...},
     "metrics": {... DSEEntry.metrics() shape ...}}

The key is everything a flow result depends on that the structural
fingerprint does not cover: the *structure* of the design (CFG + DFG, via
:func:`repro.core.analysis_cache.design_fingerprint`) plus the clock period,
the initiation interval and the slack-budgeting margin.  Two sweep points
whose designs are structurally identical and share those parameters are the
same evaluation, whatever the point was named — which is what lets repeated
explorations across sessions, scenarios and grid layouts resume for free.

Robustness (:class:`repro.core.jsonl.KeyedStore`): loading tolerates a
missing file, blank lines, corrupt trailing lines (a crashed writer) and
unknown schema versions — such lines are skipped, never fatal.  The *last*
record for a key wins, so re-appending an evaluation simply supersedes the
earlier line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.core.analysis_cache import design_fingerprint
from repro.core.jsonl import KeyedStore

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StoreKey:
    """Identity of one flow evaluation (structure + non-structural knobs)."""

    fingerprint: str
    clock_period: float
    pipeline_ii: Optional[int]
    margin_fraction: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "clock_period": self.clock_period,
            "pipeline_ii": self.pipeline_ii,
            "margin_fraction": self.margin_fraction,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StoreKey":
        ii = data.get("pipeline_ii")
        return cls(
            fingerprint=str(data["fingerprint"]),
            clock_period=float(data["clock_period"]),  # type: ignore[arg-type]
            pipeline_ii=int(ii) if ii is not None else None,  # type: ignore[arg-type]
            margin_fraction=float(data["margin_fraction"]),  # type: ignore[arg-type]
        )


def key_for(design, point, margin_fraction: float,
            scheduling: str = "block") -> StoreKey:
    """The :class:`StoreKey` of evaluating ``design`` at ``point``.

    ``design`` is the factory-built design of the point; its structural
    fingerprint plus the point's clock period / pipeline II and the sweep's
    margin fraction pin down both flows' outputs exactly (the flows are
    deterministic, which the golden Table-4 benchmark guards).

    A non-default ``scheduling`` mode (``"pipeline"``: the modulo-scheduled
    flows) changes both flows' outputs for the same structure and knobs, so
    it is folded into the fingerprint — block-mode keys written before the
    knob existed stay valid, and the two modes never share a record.
    """
    fingerprint = design_fingerprint(design)
    if scheduling != "block":
        fingerprint = f"{fingerprint}|scheduling={scheduling}"
    return StoreKey(
        fingerprint=fingerprint,
        clock_period=float(point.clock_period),
        pipeline_ii=point.pipeline_ii,
        margin_fraction=float(margin_fraction),
    )


class ResultStore(KeyedStore):
    """An append-only JSONL store of evaluated design points.

    Loading, the last-record-wins index, compaction and merging are
    :class:`~repro.core.jsonl.KeyedStore`'s; records are keyed by
    :class:`StoreKey`.  ``path=None`` gives a purely in-memory store.
    """

    @staticmethod
    def accept(record: Dict[str, object]) -> bool:
        return (record.get("schema") == SCHEMA_VERSION
                and isinstance(record.get("key"), dict)
                and isinstance(record.get("metrics"), dict))

    @staticmethod
    def key(record: Dict[str, object]) -> StoreKey:
        return StoreKey.from_dict(record["key"])  # type: ignore[arg-type]

    # -- queries -----------------------------------------------------------------

    def get_metrics(self, key: StoreKey) -> Optional[Dict[str, object]]:
        """Just the metrics dict stored under ``key``, or ``None``."""
        record = self._records.get(key)
        return record.get("metrics") if record is not None else None  # type: ignore[return-value]

    def records(self, workload: Optional[str] = None) -> List[Dict[str, object]]:
        """All records, optionally filtered by workload tag (stable order)."""
        return [record for record in self._records.values()
                if workload is None or record.get("workload") == workload]

    def metrics(self, workload: Optional[str] = None) -> List[Dict[str, object]]:
        """The metrics dicts of :meth:`records` (sweep-shaped export, the
        JSON-safe shape :func:`repro.explore.pareto.front_from_metrics`
        consumes; schedules and datapaths are deliberately not persisted)."""
        return [record["metrics"] for record in self.records(workload)]  # type: ignore[misc]

    def workloads(self) -> List[str]:
        """The distinct workload tags present, sorted."""
        return sorted({str(record.get("workload", ""))
                       for record in self._records.values()})

    # -- writes ------------------------------------------------------------------

    def put(self, key: StoreKey, metrics: Mapping[str, object],
            workload: str = "",
            point: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
        """Record one evaluation: append a JSONL line and index it.

        ``metrics`` must be JSON-safe (the :meth:`DSEEntry.metrics` shape
        is).  Returns the full record.  Re-putting a key appends a new line
        whose record supersedes the old one on the next load.
        """
        record: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "workload": workload,
            "key": key.as_dict(),
            "point": dict(point) if point is not None
            else (metrics.get("point") if isinstance(metrics.get("point"), dict)
                  else None),
            "metrics": json.loads(json.dumps(metrics)),
        }
        self._append(record)
        return record

    def import_dse_result(self, result, design_factory: Callable,
                          margin_fraction: float = 0.05,
                          workload: str = "") -> int:
        """Store every entry of a :class:`repro.flows.dse.DSEResult`.

        ``design_factory`` rebuilds each entry's design (cheap relative to
        the flows) so its structural fingerprint can key the record.
        Returns the number of records written.
        """
        count = 0
        for entry in result.entries:
            design = design_factory(entry.point)
            key = key_for(design, entry.point, margin_fraction)
            self.put(key, entry.metrics(), workload=workload)
            count += 1
        return count
