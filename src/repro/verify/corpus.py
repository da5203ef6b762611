"""Append-only JSONL corpus of failing / interesting fuzzing scenarios.

Format (one JSON object per line, ``sort_keys`` so lines are byte-stable)::

    {"schema": 1,
     "kind": "failure" | "shrunk",
     "oracle": "<oracle name>",
     "fingerprint": "<design_fingerprint sha256 of the built design>",
     "seed": <scenario seed>,
     "ops": <design operation count>,
     "details": "<violation description>",
     "spec": {... ScenarioSpec.to_dict() ...},
     "shrunk_from": "<fingerprint of the unshrunk spec>" | null}

The persistence dialect is shared with :mod:`repro.explore.store` through
:mod:`repro.core.jsonl`: the *last* record for a key wins, loading
tolerates missing files, blank lines, corrupt trailing lines and unknown
schema versions (skipped, never fatal), and appends flush line-by-line so a
crashed run loses at most its unfinished line.

Records are keyed by ``(oracle, kind, fingerprint, clock, II, margin)``:
the structural :func:`repro.core.analysis_cache.design_fingerprint` — the
same identity the exploration store uses — plus the evaluation knobs the
structure does not cover (the store's key-split), plus the record kind so a
shrunk reproducer that happens to share its parent's structure (e.g. when
only the pipeline II was shrunk away) never overwrites the raw failure.

A corpus is the regression memory of the fuzzer: ``repro verify replay``
re-runs every stored spec against its oracle, so once a scenario has failed
it keeps being checked forever (CI uploads the nightly corpus as an
artifact; committing interesting entries to the repo makes them permanent).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.core.jsonl import (
    append_record,
    dump_record,
    load_records,
    rewrite_records,
)
from repro.errors import ReproError
from repro.verify.scenarios import ScenarioSpec

CORPUS_SCHEMA = 1

#: (oracle, kind, fingerprint, clock_period, pipeline_ii, margin_fraction)
_Key = Tuple[str, str, str, float, Optional[int], float]


def accept_record(record: Dict[str, object]) -> bool:
    """Schema/shape validation of one corpus record (the load filter)."""
    return Corpus._accept(record)


def record_key(record: Dict[str, object]) -> _Key:
    """The dedup identity of one corpus record.

    ``(oracle, kind, design fingerprint, clock/II/margin point)`` — the
    exact keying :class:`Corpus` applies on load, exposed at module level
    so the campaign merge layer dedups shard corpora under the same policy
    the store itself replays.
    """
    return Corpus._key(record)


class Corpus:
    """An append-only JSONL corpus with last-record-wins semantics.

    ``path=None`` gives an in-memory corpus with identical behaviour (used
    by the unit tests and by dry runs).
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._records: Dict[_Key, Dict[str, object]] = {}
        self.skipped_lines = 0
        if path is not None:
            self._load(path)

    # -- loading -----------------------------------------------------------------

    @staticmethod
    def _accept(record: Dict[str, object]) -> bool:
        return (record.get("schema") == CORPUS_SCHEMA
                and isinstance(record.get("spec"), dict)
                and isinstance(record.get("oracle"), str)
                and isinstance(record.get("fingerprint"), str))

    @staticmethod
    def _key(record: Dict[str, object]) -> _Key:
        spec = record.get("spec") or {}
        ii = spec.get("pipeline_ii")
        return (
            str(record["oracle"]),
            str(record.get("kind", "failure")),
            str(record["fingerprint"]),
            float(spec.get("clock_period", 0.0)),
            int(ii) if ii is not None else None,
            float(spec.get("margin_fraction", 0.0)),
        )

    def _load(self, path: str) -> None:
        records, self.skipped_lines = load_records(path, self._accept)
        for record in records:
            try:
                key = self._key(record)
            except (TypeError, ValueError):
                self.skipped_lines += 1
                continue
            self._records[key] = record

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def records(self, oracle: Optional[str] = None) -> List[Dict[str, object]]:
        """All records in insertion order, optionally filtered by oracle."""
        return [record for record in self._records.values()
                if oracle is None or record.get("oracle") == oracle]

    def get(self, oracle: str, fingerprint: str,
            kind: Optional[str] = None) -> Optional[Dict[str, object]]:
        """The latest record of ``oracle`` on ``fingerprint`` (any knobs)."""
        match: Optional[Dict[str, object]] = None
        for record in self._records.values():
            if (record.get("oracle") == oracle
                    and record.get("fingerprint") == fingerprint
                    and (kind is None or record.get("kind") == kind)):
                match = record
        return match

    def find(self, fingerprint_prefix: str) -> List[Dict[str, object]]:
        """Records whose fingerprint starts with ``fingerprint_prefix``."""
        return [record for record in self._records.values()
                if str(record.get("fingerprint", "")
                       ).startswith(fingerprint_prefix)]

    def spec_of(self, record: Dict[str, object]) -> ScenarioSpec:
        """Rebuild the :class:`ScenarioSpec` stored in ``record``."""
        return ScenarioSpec.from_dict(record["spec"])  # type: ignore[arg-type]

    # -- writes ------------------------------------------------------------------

    def add(self, spec: ScenarioSpec, oracle: str, details: str,
            kind: str = "failure",
            fingerprint: Optional[str] = None,
            shrunk_from: Optional[str] = None) -> Dict[str, object]:
        """Record one failing/interesting spec; returns the full record.

        ``fingerprint`` may be passed when the caller already built the
        design (fingerprinting rebuilds it otherwise).  Re-adding a record
        with the same key (oracle, kind, structure and evaluation knobs)
        appends a new line that supersedes the earlier one on the next
        load.
        """
        if kind not in ("failure", "shrunk"):
            raise ReproError(f"unknown corpus record kind {kind!r}")
        fingerprint = fingerprint or spec.fingerprint()
        record: Dict[str, object] = {
            "schema": CORPUS_SCHEMA,
            "kind": kind,
            "oracle": oracle,
            "fingerprint": fingerprint,
            "seed": spec.seed,
            "ops": spec.num_design_ops(),
            "details": details,
            "spec": spec.to_dict(),
            "shrunk_from": shrunk_from,
        }
        if self.path is not None:
            append_record(self.path, record)
        self._records[self._key(record)] = record
        return record

    def rewrite(self, path: Optional[str] = None) -> int:
        """Compact the corpus: write every live record once, in order.

        Writes to ``path`` (default: the corpus's own path) and returns the
        number of records written.  Because records are JSON with sorted
        keys, compacting the same corpus twice produces byte-identical
        files — the round-trip stability the regression tests assert.
        """
        target = path if path is not None else self.path
        if target is None:
            raise ReproError("an in-memory corpus needs an explicit path")
        return rewrite_records(target, self._records.values())


def open_corpus(path: Optional[str]) -> Corpus:
    """Convenience constructor (symmetry with :func:`repro.explore.store.open_store`)."""
    if path is not None and os.path.isdir(path):
        raise ReproError(f"corpus path {path!r} is a directory")
    return Corpus(path)
