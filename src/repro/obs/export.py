"""Span export: JSONL event sink and Chrome trace-event conversion.

Two interchange formats, both byte-stable for a fixed input:

* **JSONL** — one flattened span record per line through the shared
  :mod:`repro.core.jsonl` dialect (sorted keys, append-safe, corrupt-line
  tolerant).  Records carry an explicit ``id``/``parent`` pair (depth-first
  preorder numbering), so a forest round-trips exactly:
  ``load_spans(write_spans(...))`` rebuilds identical trees.
* **Chrome trace events** — the ``chrome://tracing`` / Perfetto JSON format:
  one complete (``"ph": "X"``) event per span with microsecond ``ts``/
  ``dur``, the span's track as ``tid`` and its attributes as ``args``.
  Timestamps are rebased to the earliest span start *in the exported set*,
  so the conversion is a pure function of the input file — converting the
  same JSONL twice produces byte-identical output (pinned by the CLI
  round-trip tests).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.core.jsonl import dump_record, load_records
from repro.obs.trace import Span

__all__ = [
    "span_records",
    "records_to_spans",
    "write_spans_jsonl",
    "load_spans_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "jsonl_to_chrome_trace",
]

_RECORD_KEYS = ("id", "parent", "name", "start", "end", "track", "attrs")


def span_records(roots: Sequence[Span]) -> List[Dict[str, object]]:
    """Flatten a span forest to JSONL-ready records (depth-first preorder)."""
    records: List[Dict[str, object]] = []

    def visit(span_obj: Span, parent: Optional[int]) -> None:
        identifier = len(records)
        records.append({
            "id": identifier,
            "parent": parent,
            "name": span_obj.name,
            "start": span_obj.start,
            "end": span_obj.end,
            "track": span_obj.track,
            "attrs": _json_safe_attrs(span_obj.attrs),
        })
        for child in span_obj.children:
            visit(child, identifier)

    for root in roots:
        visit(root, None)
    return records


def _json_safe_attrs(attrs: Dict[str, object]) -> Dict[str, object]:
    safe: Dict[str, object] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[key] = value
        else:
            safe[key] = repr(value)
    return safe


def _accept_record(record: Dict[str, object]) -> bool:
    if not all(key in record for key in ("id", "name", "start", "end")):
        return False
    float(record["start"])  # type: ignore[arg-type]
    float(record["end"])  # type: ignore[arg-type]
    int(record["id"])  # type: ignore[arg-type]
    return True


def records_to_spans(records: Sequence[Dict[str, object]]) -> List[Span]:
    """Rebuild the span forest from flattened records.

    Records with an unknown ``parent`` (e.g. the parent line was corrupt
    and skipped) are grafted in as roots rather than dropped.
    """
    by_id: Dict[int, Span] = {}
    roots: List[Span] = []
    for record in records:
        span_obj = Span(
            name=str(record["name"]),
            attrs=dict(record.get("attrs") or {}),  # type: ignore[arg-type]
            start=float(record["start"]),  # type: ignore[arg-type]
            end=float(record["end"]),  # type: ignore[arg-type]
            track=str(record.get("track", "main")),
        )
        by_id[int(record["id"])] = span_obj  # type: ignore[arg-type]
        parent = record.get("parent")
        parent_span = by_id.get(int(parent)) if parent is not None else None  # type: ignore[arg-type]
        if parent_span is not None:
            parent_span.children.append(span_obj)
        else:
            roots.append(span_obj)
    return roots


def write_spans_jsonl(roots: Sequence[Span], path: str) -> int:
    """Write the forest as one record per line; returns the record count."""
    records = span_records(roots)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(dump_record(record) + "\n")
    return len(records)


def load_spans_jsonl(path: str) -> List[Span]:
    """Load a span forest written by :func:`write_spans_jsonl`."""
    records, _skipped = load_records(path, _accept_record)
    return records_to_spans(records)


def chrome_trace_events(roots: Sequence[Span]) -> List[Dict[str, object]]:
    """Complete-event (``ph: X``) dicts for ``chrome://tracing``/Perfetto.

    ``ts``/``dur`` are integer microseconds rebased to the earliest start in
    the forest — integers keep the JSON rendering platform-stable.  Tracks
    map to ``tid`` labels via per-track metadata events, so engine workers
    and threads display as separate rows.
    """
    flat = span_records(roots)
    if not flat:
        return []
    epoch = min(float(record["start"]) for record in flat)  # type: ignore[arg-type]
    tracks: List[str] = []
    track_ids: Dict[str, int] = {}
    events: List[Dict[str, object]] = []
    for record in flat:
        track = str(record["track"])
        tid = track_ids.get(track)
        if tid is None:
            tid = track_ids[track] = len(tracks) + 1
            tracks.append(track)
        start = float(record["start"])  # type: ignore[arg-type]
        end = float(record["end"])  # type: ignore[arg-type]
        events.append({
            "name": record["name"],
            "cat": "repro",
            "ph": "X",
            "ts": int(round((start - epoch) * 1e6)),
            "dur": int(round(max(end - start, 0.0) * 1e6)),
            "pid": 1,
            "tid": tid,
            "args": record["attrs"] or {},
        })
    for track in tracks:
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": track_ids[track],
            "args": {"name": track},
        })
    return events


def write_chrome_trace(roots: Sequence[Span], path: str) -> int:
    """Write the forest as a Chrome trace JSON file; returns event count."""
    events = chrome_trace_events(roots)
    payload = {"displayTimeUnit": "ms", "traceEvents": events}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return len(events)


def jsonl_to_chrome_trace(jsonl_path: str, chrome_path: str) -> int:
    """Convert a span JSONL file to a Chrome trace file.

    A pure function of the input bytes: the same JSONL always produces a
    byte-identical trace file (asserted by the CLI round-trip tests).
    """
    return write_chrome_trace(load_spans_jsonl(jsonl_path), chrome_path)
