"""The fan-in merge: order-invariance, byte-stability, idempotence.

The property the CI fleet rests on: merging shard artifacts in *any*
permutation yields byte-identical output with identical dedup counts, and
re-merging a merged file is a no-op.  Shard files are synthesized directly
in the stores' JSONL dialects (no flow runs), so the whole suite is fast.
"""

import itertools
import json
import os

import pytest

from repro.campaign.merge import (
    CORPUS_FILE,
    METRICS_FILE,
    REPORT_FILE,
    STORE_FILE,
    merge_shards,
)
from repro.core.jsonl import dump_record
from repro.errors import ReproError
from repro.explore.store import ResultStore
from repro.verify.corpus import Corpus


def corpus_record(oracle="area-recovery", fingerprint="f0", seed=1,
                  clock=1500.0, details="boom", kind="failure"):
    return {
        "schema": 1, "kind": kind, "oracle": oracle,
        "fingerprint": fingerprint, "seed": seed, "ops": 3,
        "details": details, "shrunk_from": None,
        "spec": {"seed": seed, "clock_period": clock, "pipeline_ii": None,
                 "margin_fraction": 0.05},
    }


def store_record(fingerprint="s0", clock=1500.0, latency=8, area=100.0):
    return {
        "schema": 1, "workload": "idct",
        "key": {"fingerprint": fingerprint, "clock_period": clock,
                "pipeline_ii": None, "margin_fraction": 0.05},
        "point": {"name": f"L{latency}", "latency": latency,
                  "pipeline_ii": None, "clock_period": clock},
        "metrics": {"latency_steps": latency, "area": area},
    }


def write_jsonl(path, records, trailing=""):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(dump_record(record) + "\n")
        if trailing:
            handle.write(trailing)


@pytest.fixture()
def shard_dirs(tmp_path):
    """Four shard dirs with overlap, a conflict and a corrupt line."""
    specs = [
        # shard 0: two corpus records, one store record
        ([corpus_record(fingerprint="a"), corpus_record(fingerprint="b")],
         [store_record(fingerprint="x")]),
        # shard 1: repeats corpus "a" byte-identically; new store record
        ([corpus_record(fingerprint="a")],
         [store_record(fingerprint="y", latency=9)]),
        # shard 2: conflicting payload for corpus "b" (same key, new details)
        ([corpus_record(fingerprint="b", details="different message")],
         [store_record(fingerprint="x")]),
        # shard 3: corrupt trailing line in the store (crashed writer)
        ([corpus_record(fingerprint="c", oracle="pareto-front")],
         [store_record(fingerprint="z", latency=10)]),
    ]
    dirs = []
    for index, (corpus, store) in enumerate(specs):
        directory = tmp_path / f"shard-{index}"
        directory.mkdir()
        write_jsonl(str(directory / CORPUS_FILE), corpus)
        write_jsonl(str(directory / STORE_FILE), store,
                    trailing="{truncated" if index == 3 else "")
        (directory / METRICS_FILE).write_text(
            json.dumps({"schema": 1, "campaign": "unit", "seed": 11,
                        "metrics": {"counters": {"oracle.pass": 2 + index}}}),
            encoding="utf-8")
        dirs.append(str(directory))
    return dirs


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_merge_every_permutation_is_byte_identical(shard_dirs, tmp_path):
    reference_bytes = None
    reference_report = None
    for permutation in itertools.permutations(shard_dirs):
        out = tmp_path / ("out-" + "-".join(os.path.basename(p)[-1]
                                            for p in permutation))
        report = merge_shards(list(permutation), str(out))
        blob = (read_bytes(str(out / CORPUS_FILE)),
                read_bytes(str(out / STORE_FILE)))
        # Strip the only order-dependent field (output path) before compare.
        for section in ("corpus", "store"):
            report[section].pop("out_path")
        if reference_bytes is None:
            reference_bytes, reference_report = blob, report
            continue
        assert blob == reference_bytes
        assert report == reference_report


def test_merge_counts_duplicates_conflicts_and_skips(shard_dirs, tmp_path):
    out = tmp_path / "merged"
    report = merge_shards(shard_dirs, str(out))
    corpus, store = report["corpus"], report["store"]
    # corpus: a, a(dup), b, b(conflict), c -> 3 unique
    assert corpus["records_in"] == 5
    assert corpus["unique"] == 3
    assert corpus["exact_duplicates"] == 1
    assert corpus["conflicts"] == 1
    assert corpus["skipped_lines"] == 0
    # store: x, x(dup), y, z -> 3 unique, plus one corrupt line
    assert store["records_in"] == 4
    assert store["unique"] == 3
    assert store["exact_duplicates"] == 1
    assert store["conflicts"] == 0
    assert store["skipped_lines"] == 1
    assert store["clean"] is False and corpus["clean"] is False
    assert report["clean"] is False
    # The corrupt line is attributed to its input file.
    skips = {entry["path"]: entry["skipped_lines"]
             for entry in store["inputs"]}
    assert sum(skips.values()) == 1
    # Shard manifests ride along, sorted by directory.
    assert [m["metrics"]["counters"]["oracle.pass"]
            for m in report["shards"]] == [2, 3, 4, 5]
    assert os.path.exists(str(out / REPORT_FILE))


def test_remerge_of_a_merge_is_idempotent(shard_dirs, tmp_path):
    first = tmp_path / "first"
    merge_shards(shard_dirs, str(first))
    again_corpus = Corpus.merge([str(first / CORPUS_FILE)] * 2, None)
    again_store = ResultStore.merge([str(first / STORE_FILE)] * 2, None)
    # Dry-run sha256 of the re-merge equals the written file's content hash.
    import hashlib
    assert again_corpus.sha256 == hashlib.sha256(
        read_bytes(str(first / CORPUS_FILE))).hexdigest()
    assert again_store.sha256 == hashlib.sha256(
        read_bytes(str(first / STORE_FILE))).hexdigest()
    # Nothing new, no conflicts: the merged file is a fixed point.
    assert again_corpus.conflicts == 0
    assert again_store.conflicts == 0


def test_dry_run_writes_nothing(shard_dirs, tmp_path):
    before = set(os.listdir(tmp_path))
    report = merge_shards(shard_dirs, None)
    assert set(os.listdir(tmp_path)) == before
    assert report["corpus"]["unique"] == 3


def test_merge_requires_existing_directories(tmp_path):
    with pytest.raises(ReproError):
        merge_shards([], str(tmp_path / "out"))
    with pytest.raises(ReproError):
        merge_shards([str(tmp_path / "missing")], str(tmp_path / "out"))


def test_missing_shard_files_merge_as_empty(tmp_path):
    empty = tmp_path / "empty-shard"
    empty.mkdir()
    report = merge_shards([str(empty)], str(tmp_path / "out"))
    assert report["corpus"]["records_in"] == 0
    assert report["store"]["records_in"] == 0
    assert report["clean"] is True


def test_skipped_lines_surface_in_cache_stats(tmp_path):
    from repro.obs.metrics import cache_stats

    path = tmp_path / "corrupt.jsonl"
    write_jsonl(str(path), [store_record()], trailing="%%% not json\n")
    before = cache_stats()["jsonl_stores"]["skipped_lines"]
    ResultStore.merge([str(path)], None)
    after = cache_stats()["jsonl_stores"]["skipped_lines"]
    assert after == before + 1


def test_corpus_line_with_an_unparseable_key_is_skipped(tmp_path):
    """The merge applies the load's rule: a record whose key does not parse
    is skipped and counted, not raised."""
    path = tmp_path / "corpus.jsonl"
    write_jsonl(str(path), [corpus_record(fingerprint="a"),
                            corpus_record(fingerprint="b", clock="fast")])
    stats = Corpus.merge([str(path)], None)
    assert stats.records_in == 1
    assert stats.skipped_lines == 1
    assert not stats.clean
    assert Corpus(str(path)).skipped_lines == 1
