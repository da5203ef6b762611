"""Byte-stable, order-invariant union of shard JSONL artifacts.

Every shard of a campaign writes the same two append-only JSONL stores —
a failure corpus (:mod:`repro.verify.corpus`) and a result store
(:mod:`repro.explore.store`) — and both are *mergeable by construction*:
records are canonical one-line JSON (``sort_keys``) keyed by structural
fingerprint plus evaluation knobs.  The fan-in step therefore needs no
coordination with the shards; it is a pure function of the shard files:

* **order-invariant** — merging the shards in any permutation yields the
  same bytes.  Each file is unioned by its store's own
  :meth:`~repro.core.jsonl.KeyedStore.merge` (:meth:`Corpus.merge
  <repro.verify.corpus.Corpus.merge>`, :meth:`ResultStore.merge
  <repro.explore.store.ResultStore.merge>`): records are deduped by the
  store's key and the survivor of a key is chosen by canonical
  serialisation, never by input position;
* **byte-stable** — output records are written in sorted canonical-line
  order, so the same inputs produce byte-identical files (the report
  carries the output's sha256 for cheap cross-run comparison);
* **idempotent** — a merged file re-merged (alone, with itself, or into a
  later fan-in) adds nothing and changes nothing.

Conflicts — two records sharing a key but differing in payload — cannot
happen between shards of one deterministic campaign, but *can* appear when
merging corpora from different code versions (an oracle's message changed,
say).  They are resolved deterministically (lexicographically smallest
canonical line wins) and **counted**, never hidden; likewise every line a
loader tolerated and skipped is surfaced per input file, so a truncated
shard artifact can't masquerade as a clean merge.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Sequence

from repro.errors import ReproError
from repro.explore.store import ResultStore
from repro.verify.corpus import Corpus

MERGE_SCHEMA = 1

#: Shard-directory file names (written by repro.campaign.shard, read here).
CORPUS_FILE = "corpus.jsonl"
STORE_FILE = "store.jsonl"
METRICS_FILE = "shard-metrics.json"
REPORT_FILE = "merge-report.json"


def _load_shard_metrics(directory: str) -> Optional[Dict[str, object]]:
    path = os.path.join(directory, METRICS_FILE)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except ValueError:
        return {"error": f"unparseable {METRICS_FILE}",
                "directory": os.path.basename(directory)}
    return data if isinstance(data, dict) else None


def merge_shards(shard_dirs: Sequence[str],
                 out_dir: Optional[str]) -> Dict[str, object]:
    """Fan in a campaign: union every shard's corpus/store, collect metrics.

    ``shard_dirs`` are directories written by
    :func:`repro.campaign.shard.run_shard` (missing per-shard files are
    fine — a shard that ran no fuzzing has no corpus).  Writes
    ``corpus.jsonl``, ``store.jsonl`` and ``merge-report.json`` into
    ``out_dir`` and returns the JSON-safe merge report.  ``out_dir=None``
    is a dry run: statistics only, nothing written.
    """
    if not shard_dirs:
        raise ReproError("merge needs at least one shard directory")
    for directory in shard_dirs:
        if not os.path.isdir(directory):
            raise ReproError(f"shard directory {directory!r} does not exist")

    dirs = sorted(shard_dirs)
    corpus_out = os.path.join(out_dir, CORPUS_FILE) if out_dir else None
    store_out = os.path.join(out_dir, STORE_FILE) if out_dir else None
    corpus_stats = Corpus.merge(
        [os.path.join(d, CORPUS_FILE) for d in dirs], corpus_out)
    store_stats = ResultStore.merge(
        [os.path.join(d, STORE_FILE) for d in dirs], store_out)

    shard_metrics = []
    for directory in dirs:
        metrics = _load_shard_metrics(directory)
        if metrics is not None:
            shard_metrics.append(metrics)

    report: Dict[str, object] = {
        "schema": MERGE_SCHEMA,
        "shard_dirs": [os.path.basename(d) for d in dirs],
        "corpus": corpus_stats.as_dict(),
        "store": store_stats.as_dict(),
        "shards": shard_metrics,
        "clean": corpus_stats.clean and store_stats.clean,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, REPORT_FILE), "w",
                  encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return report
