"""The keyed-file policy both JSONL stores inherit from ``KeyedStore``.

Every test runs over :class:`~repro.explore.store.ResultStore` and
:class:`~repro.verify.corpus.Corpus`: loading, the last-record-wins index,
compaction and the order-invariant merge are one implementation, so they
must behave identically for both record schemas.
"""

import hashlib
import json

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
