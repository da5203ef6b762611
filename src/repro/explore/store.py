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

Memo protocol: a memo answers ``lookup(key)`` with the stored metrics or
``None`` and stores an evaluation with ``record(key, metrics, workload)``.
:class:`ResultStore` is one, and so is its counting, self-compacting
subclass :class:`repro.serve.cache.MemoCache`.  :func:`memoized_run` is the
one key -> look up -> evaluate -> record loop over a memo; serve jobs and
the adaptive explorer resume sweeps through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.core.analysis_cache import design_fingerprint
from repro.core.deadline import check_deadline
from repro.core.jsonl import KeyedStore
from repro.errors import DeadlineExceeded, ReproError
from repro.flows.dse import DesignPoint, DSEResult, PointFailure

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

    def lookup(self, key: StoreKey) -> Optional[Dict[str, object]]:
        """Just the metrics dict stored under ``key``, or ``None``."""
        record = self._records.get(key)
        return record.get("metrics") if record is not None else None  # type: ignore[return-value]

    # -- writes ------------------------------------------------------------------

    def record(self, key: StoreKey, metrics: Mapping[str, object],
               workload: str = "") -> Dict[str, object]:
        """Record one evaluation: append a JSONL line and index it.

        ``metrics`` must be JSON-safe (the :meth:`DSEEntry.metrics` shape
        is); the record's ``point`` is its ``"point"`` dict.  Returns the
        full record.  Re-recording a key appends a new line whose record
        supersedes the old one on the next load.
        """
        metrics = json.loads(json.dumps(metrics))
        point = metrics.get("point")
        record: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "workload": workload,
            "key": key.as_dict(),
            "point": point if isinstance(point, dict) else None,
            "metrics": metrics,
        }
        self._append(record)
        return record


#: Where a :func:`memoized_run` point's metrics came from: the memo, this
#: call's evaluation, or an earlier point of this call with the same key.
MEMO, EVALUATED, SHARED = "memo", "evaluated", "shared"


class Memoized(NamedTuple):
    """One point of a :func:`memoized_run`; ``metrics`` and ``source`` are
    ``None`` when it failed, and ``key`` too when its factory raised."""

    key: Optional[StoreKey]
    metrics: Optional[Dict[str, object]]
    source: Optional[str]


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def memoized_run(session, points: Sequence[DesignPoint], memo,
                 workload: str = "", workers: int = 1,
                 evaluator: Optional[Callable[..., Dict[str, object]]] = None,
                 keys: Optional[Sequence[StoreKey]] = None,
                 ) -> Tuple[List[Memoized], List[PointFailure]]:
    """Key each point, look each key up in ``memo`` once, evaluate the
    misses and record the successes under ``workload``.

    Points are keyed by :func:`key_for` on ``session``'s factory, margin and
    scheduling mode (or by ``keys``, their keys in order from an earlier
    run, and then no design is built); a later point with a key already
    seen shares its metrics.  Misses run through ``session.run(misses,
    workers=workers)``, or through one ``evaluator(factory, library, point,
    margin_fraction, scheduling)`` call each, and are recorded in the
    caller's order of first occurrence before this returns.  An
    :class:`Exception` from a point's factory, evaluator call or flows fails
    that point only: it is returned, never raised; a deadline cutoff
    propagates once every miss that finished before it is recorded.
    Returns one :class:`Memoized` per point and the failures, both in the
    caller's order.
    """
    errors: Dict[object, str] = {}  # by key, or by index if the factory raised
    if keys is None:
        keys = []
        for index, point in enumerate(points):
            try:
                keys.append(key_for(session.design_factory(point), point,
                                    session.margin_fraction,
                                    scheduling=session.scheduling))
            except Exception as exc:  # noqa: BLE001 — a failure of this point only
                keys.append(None)
                errors[index] = _error(exc)
    elif len(keys) != len(points):
        raise ReproError(f"{len(keys)} keys for {len(points)} points")
    resolved: Dict[StoreKey, Dict[str, object]] = {}
    misses: Dict[StoreKey, DesignPoint] = {}  # key -> its first point
    for key, point in zip(keys, points):
        if key is not None and key not in resolved and key not in misses:
            metrics = memo.lookup(key)
            if metrics is None:
                misses[key] = point
            else:
                resolved[key] = metrics
    key_of = {point: key for key, point in misses.items()}

    def resolve(result: DSEResult) -> None:
        for entry in result.entries:
            resolved[key_of[entry.point]] = entry.metrics()
        for failure in result.failures:
            errors[key_of[failure.point]] = failure.error

    try:
        if evaluator is not None:
            for key, point in misses.items():
                check_deadline()
                try:
                    resolved[key] = evaluator(
                        session.design_factory, session.library, point,
                        session.margin_fraction, session.scheduling)
                except Exception as exc:  # noqa: BLE001 — a failure of this point only
                    errors[key] = _error(exc)
        elif misses:
            try:
                resolve(session.run(list(misses.values()), workers=workers))
            except DeadlineExceeded as cutoff:
                resolve(cutoff.result)
                raise
    finally:
        for key in misses:
            if key in resolved:
                memo.record(key, resolved[key], workload=workload)

    outcomes: List[Memoized] = []
    failures: List[PointFailure] = []
    shown = set()
    for index, (point, key) in enumerate(zip(points, keys)):
        error = errors.get(index if key is None else key)
        if error is not None:
            outcomes.append(Memoized(key, None, None))
            failures.append(PointFailure(point, error))
            continue
        source = SHARED if key in shown else EVALUATED if key in misses else MEMO
        shown.add(key)
        outcomes.append(Memoized(key, resolved[key], source))
    return outcomes, failures
