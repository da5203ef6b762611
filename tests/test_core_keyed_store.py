"""The keyed-file policy both JSONL stores inherit from ``KeyedStore``.

Every test runs over :class:`~repro.explore.store.ResultStore` and
:class:`~repro.verify.corpus.Corpus`: loading, the last-record-wins index,
compaction and the order-invariant merge are one implementation, so they
must behave identically for both record schemas.
"""

import hashlib
import itertools
import json
import os
import stat

import pytest

from repro.errors import ReproError
from repro.explore.store import ResultStore, StoreKey
from repro.verify.corpus import Corpus
from repro.verify.scenarios import generate_scenario


def _put(store, index, variant):
    key = StoreKey(fingerprint=f"fp{index}", clock_period=1500.0,
                   pipeline_ii=None, margin_fraction=0.05)
    return store.record(key, {"area": float(variant)}, workload="w")


def _add(corpus, index, variant):
    return corpus.add(generate_scenario(index), "pareto-front",
                      f"details {variant}", fingerprint=f"fp{index}")


#: One write per class: ``write(store, index, variant)`` stores and returns
#: record ``index``; a later write of the same index supersedes it.
WRITERS = {ResultStore: _put, Corpus: _add}

#: A record of the class's schema whose key does not parse.
BAD_KEY_RECORDS = {
    ResultStore: {"schema": 1, "key": {"fingerprint": "x"}, "metrics": {}},
    Corpus: {"schema": 1, "oracle": "o", "fingerprint": "f",
             "spec": {"clock_period": "not a number"}},
}

store_classes = pytest.mark.parametrize(
    "cls", [ResultStore, Corpus], ids=lambda cls: cls.__name__)


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@store_classes
def test_missing_file_loads_empty(cls, tmp_path):
    store = cls(str(tmp_path / "absent.jsonl"))
    assert len(store) == 0
    assert store.records() == []
    assert store.skipped_lines == 0


@store_classes
def test_directory_path_raises(cls, tmp_path):
    with pytest.raises(ReproError):
        cls(str(tmp_path))


@store_classes
def test_tolerant_load_skips_bad_lines(cls, tmp_path):
    path = str(tmp_path / "store.jsonl")
    WRITERS[cls](cls(path), 1, 1.0)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("{not json\n")
        handle.write("\n")  # blank lines are ignored, not counted
        handle.write('"just a string"\n')
        handle.write(json.dumps({"schema": 999}) + "\n")
        handle.write(json.dumps(BAD_KEY_RECORDS[cls]) + "\n")
    reloaded = cls(path)
    assert len(reloaded) == 1
    assert reloaded.skipped_lines == 4
    assert reloaded.stale_lines == 0


@store_classes
def test_last_write_wins_in_first_insertion_order(cls, tmp_path):
    path = str(tmp_path / "store.jsonl")
    store = cls(path)
    write = WRITERS[cls]
    write(store, 1, 1.0)
    second = write(store, 2, 1.0)
    latest = write(store, 1, 2.0)
    for view in (store, cls(path)):
        assert view.records() == [latest, second]
        assert view.get(cls.key(latest)) == latest
        assert cls.key(second) in view
        assert view.stale_lines == 1


@store_classes
def test_in_memory_compact_needs_a_path(cls, tmp_path):
    store = cls()
    WRITERS[cls](store, 1, 1.0)
    with pytest.raises(ReproError):
        store.compact()
    target = str(tmp_path / "exported.jsonl")
    assert store.compact(target) == 1
    assert len(cls(target)) == 1


@store_classes
def test_compact_twice_is_byte_identical(cls, tmp_path):
    path = str(tmp_path / "store.jsonl")
    store = cls(path)
    for index in (3, 1, 2):
        for variant in (1.0, 2.0):
            WRITERS[cls](store, index, variant)
    assert store.compact() == 3
    assert store.stale_lines == 0
    first = read_bytes(path)
    store.compact()
    assert read_bytes(path) == first
    # A reloaded store compacts to the same bytes again (the sorted
    # canonical-line discipline is reload-invariant).
    cls(path).compact()
    assert read_bytes(path) == first


@store_classes
def test_compact_then_merge_is_byte_identical(cls, tmp_path):
    path = str(tmp_path / "store.jsonl")
    merged = str(tmp_path / "merged.jsonl")
    store = cls(path)
    for index in (2, 3, 1):
        WRITERS[cls](store, index, 1.0)
    store.compact()
    stats = cls.merge([path], merged)
    assert read_bytes(merged) == read_bytes(path)
    assert stats.sha256 == hashlib.sha256(read_bytes(path)).hexdigest()
    assert stats.clean and stats.unique == 3


@store_classes
def test_compaction_and_merge_keep_the_file_mode(cls, tmp_path):
    # The umask is left alone (serve runs threads): a plain open() shows
    # what a new file gets, and 0o644 is a mode a store may be given.
    with open(tmp_path / "probe", "w", encoding="utf-8"):
        pass
    new_file_mode = stat.S_IMODE(os.stat(tmp_path / "probe").st_mode)
    path = str(tmp_path / "store.jsonl")
    store = cls(path)
    for index in (1, 2):
        WRITERS[cls](store, index, 1.0)
        WRITERS[cls](store, index, 2.0)
    os.chmod(path, 0o644)
    store.compact()
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
    merged = str(tmp_path / "merged.jsonl")
    cls.merge([path], merged)
    assert stat.S_IMODE(os.stat(merged).st_mode) == new_file_mode


def _write_file(cls, path, writes, trailing=""):
    """A file of ``cls``'s kind holding ``writes``, then ``trailing`` raw."""
    store = cls(path)
    for index, variant in writes:
        WRITERS[cls](store, index, variant)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(trailing)
    return path


def _shard_files(cls, tmp_path):
    """Four files with a duplicate, a conflict and a corrupt trailing line."""
    return [
        _write_file(cls, str(tmp_path / "s0.jsonl"), [(1, 1.0), (2, 1.0)]),
        # record 1 again, byte for byte
        _write_file(cls, str(tmp_path / "s1.jsonl"), [(1, 1.0)]),
        # record 2 with another payload
        _write_file(cls, str(tmp_path / "s2.jsonl"), [(2, 2.0)]),
        # a crashed writer's half line
        _write_file(cls, str(tmp_path / "s3.jsonl"), [(3, 1.0)],
                    trailing="{truncated"),
    ]


@store_classes
def test_merge_every_permutation_is_byte_identical(cls, tmp_path):
    paths = _shard_files(cls, tmp_path)
    results = set()
    for number, permutation in enumerate(itertools.permutations(paths)):
        out = str(tmp_path / f"merged-{number}.jsonl")
        stats = cls.merge(list(permutation), out)
        results.add((read_bytes(out), repr(stats)))
    assert len(results) == 1


@store_classes
def test_merge_counts_duplicates_conflicts_and_skips(cls, tmp_path):
    paths = _shard_files(cls, tmp_path)
    stats = cls.merge(paths, str(tmp_path / "merged.jsonl"))
    assert stats.records_in == 5
    assert stats.unique == 3
    assert stats.exact_duplicates == 1
    assert stats.conflicts == 1
    assert stats.skipped_lines == 1
    assert not stats.clean
    # The corrupt line is attributed to its input file.
    assert [(entry["path"], entry["skipped_lines"])
            for entry in stats.inputs] == [(path, int(path.endswith("s3.jsonl")))
                                           for path in paths]


@store_classes
def test_remerge_of_a_merge_is_idempotent(cls, tmp_path):
    first = str(tmp_path / "first.jsonl")
    cls.merge(_shard_files(cls, tmp_path), first)
    again = str(tmp_path / "again.jsonl")
    stats = cls.merge([first, first], again)
    assert read_bytes(again) == read_bytes(first)
    assert stats.sha256 == hashlib.sha256(read_bytes(first)).hexdigest()
    assert stats.clean and stats.unique == 3


@store_classes
def test_skipped_lines_surface_in_cache_stats(cls, tmp_path):
    from repro.obs.metrics import cache_stats

    path = _write_file(cls, str(tmp_path / "corrupt.jsonl"), [(1, 1.0)],
                       trailing="%%% not json\n")
    before = cache_stats()["jsonl_stores"]["skipped_lines"]
    cls.merge([path], str(tmp_path / "merged.jsonl"))
    after = cache_stats()["jsonl_stores"]["skipped_lines"]
    assert after == before + 1


@store_classes
def test_merge_skips_a_record_whose_key_does_not_parse(cls, tmp_path):
    """The merge applies the load's rule: a record whose key does not parse
    is skipped and counted, not raised."""
    path = _write_file(cls, str(tmp_path / "store.jsonl"), [(1, 1.0)],
                       trailing=json.dumps(BAD_KEY_RECORDS[cls]) + "\n")
    stats = cls.merge([path], str(tmp_path / "merged.jsonl"))
    assert stats.records_in == 1
    assert stats.skipped_lines == 1
    assert not stats.clean
    assert cls(path).skipped_lines == 1
