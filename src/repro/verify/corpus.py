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

The persistence policy is shared with :mod:`repro.explore.store` through
:class:`repro.core.jsonl.KeyedStore`: the *last* record for a key wins,
loading tolerates missing files, blank lines, corrupt trailing lines and
unknown schema versions (skipped, never fatal), and appends flush
line-by-line so a crashed run loses at most its unfinished line.

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

from typing import Dict, List, Optional, Tuple

from repro.core.jsonl import KeyedStore
from repro.errors import ReproError
from repro.verify.scenarios import ScenarioSpec

CORPUS_SCHEMA = 1

#: (oracle, kind, fingerprint, clock_period, pipeline_ii, margin_fraction)
_Key = Tuple[str, str, str, float, Optional[int], float]


class Corpus(KeyedStore):
    """An append-only JSONL corpus with last-record-wins semantics.

    Loading, the index, compaction and merging are
    :class:`~repro.core.jsonl.KeyedStore`'s.  ``path=None`` gives an
    in-memory corpus with identical behaviour (used by the unit tests and
    by dry runs).
    """

    @staticmethod
    def accept(record: Dict[str, object]) -> bool:
        return (record.get("schema") == CORPUS_SCHEMA
                and isinstance(record.get("spec"), dict)
                and isinstance(record.get("oracle"), str)
                and isinstance(record.get("fingerprint"), str))

    @staticmethod
    def key(record: Dict[str, object]) -> _Key:
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

    # -- queries -----------------------------------------------------------------

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
        self._append(record)
        return record
