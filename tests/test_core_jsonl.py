"""Tests of the shared JSONL dialect: locking, durability, compaction.

The multiprocess hammer is the regression test for the append race the
serve layer's worker pool exposed: several writers appending to one store
without coordination could interleave partial lines, which the tolerant
loader then *silently skipped* — lost results masquerading as a clean
store.  The locked flush-then-fsync append path must keep
``skipped_lines`` at exactly zero under concurrent load.
"""

import json
import multiprocessing
import os
import stat

import pytest

from repro.core.jsonl import (
    append_record,
    append_records,
    dump_record,
    load_records,
    lock_path,
    locked,
    rewrite_records,
)


def accept_all(record):
    return True


@pytest.fixture
def makedirs_calls(monkeypatch):
    """Every directory ``os.makedirs`` is asked for, its own recursion
    included."""
    calls = []
    makedirs = os.makedirs

    def spy(name, *args, **kwargs):
        calls.append(name)
        return makedirs(name, *args, **kwargs)

    monkeypatch.setattr(os, "makedirs", spy)
    return calls


# -- basic dialect -----------------------------------------------------------------


class TestAppendAndLoad:
    def test_append_creates_parents_and_round_trips(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "store.jsonl")
        append_record(path, {"b": 2, "a": 1})
        records, skipped = load_records(path, accept_all)
        assert records == [{"a": 1, "b": 2}]
        assert skipped == 0

    def test_appends_into_an_existing_directory_make_no_directory(
            self, tmp_path, makedirs_calls):
        path = str(tmp_path / "store.jsonl")
        append_record(path, {"i": 0})
        append_records(path, [{"i": 1}, {"i": 2}])
        assert makedirs_calls == []
        assert [r["i"] for r in load_records(path, accept_all)[0]] == [0, 1, 2]

    def test_a_first_append_makes_the_missing_directories(self, tmp_path,
                                                          makedirs_calls):
        path = str(tmp_path / "a" / "b" / "store.jsonl")
        append_record(path, {"i": 0})
        # os.makedirs makes each missing parent by calling itself.
        assert makedirs_calls[0] == str(tmp_path / "a" / "b")
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == '{"i": 0}\n'
        assert os.path.isfile(lock_path(path))
        made = len(makedirs_calls)
        append_record(path, {"i": 1})
        assert len(makedirs_calls) == made

    def test_lines_are_canonical_sorted_keys(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        append_record(path, {"z": 1, "a": {"y": 2, "b": 3}})
        with open(path, "r", encoding="utf-8") as handle:
            line = handle.read().rstrip("\n")
        assert line == dump_record({"z": 1, "a": {"y": 2, "b": 3}})
        assert line == '{"a": {"b": 3, "y": 2}, "z": 1}'

    def test_batch_append_counts_and_orders(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        assert append_records(path, [{"i": i} for i in range(5)]) == 5
        assert append_records(path, []) == 0
        records, _ = load_records(path, accept_all)
        assert [r["i"] for r in records] == list(range(5))

    def test_sidecar_lock_file_is_created(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        append_record(path, {"a": 1})
        assert os.path.exists(lock_path(path))
        assert lock_path(path) == path + ".lock"

    def test_new_files_get_the_mode_a_plain_open_gives(self, tmp_path):
        # The umask is left alone (serve runs threads): a plain open() shows
        # what a new file gets.
        with open(tmp_path / "probe", "a", encoding="utf-8"):
            pass
        new_file_mode = stat.S_IMODE(os.stat(tmp_path / "probe").st_mode)
        path = str(tmp_path / "store.jsonl")
        append_record(path, {"a": 1})
        for created in (path, lock_path(path)):
            assert stat.S_IMODE(os.stat(created).st_mode) == new_file_mode

    def test_a_large_batch_reads_back_as_intact_lines(self, tmp_path,
                                                       monkeypatch):
        # 256 KiB in one batch, through a kernel that writes at most 64 KiB
        # a call: the short writes are resumed, never torn or repeated.
        path = str(tmp_path / "store.jsonl")
        # Each line is 4 KiB exactly: pad it to 4,096 bytes with its newline.
        batch = [{"index": index,
                  "pad": "x" * (4095 - len(dump_record({"index": index,
                                                        "pad": ""})))}
                 for index in range(64)]
        payload = "".join(dump_record(record) + "\n" for record in batch)
        assert len(payload) == 256 * 1024
        write = os.write
        calls = []

        def short_write(fd, data):
            calls.append(len(data))
            return write(fd, data[:64 * 1024])

        monkeypatch.setattr(os, "write", short_write)
        assert append_records(path, batch) == 64
        monkeypatch.undo()
        assert calls == [256 * 1024, 192 * 1024, 128 * 1024, 64 * 1024]
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == payload
        records, skipped = load_records(path, accept_all)
        assert (records, skipped) == (batch, 0)

    def test_locked_is_reentrant_across_processes_not_threads(self, tmp_path):
        # Single-process sanity: the context manager acquires and releases.
        path = str(tmp_path / "store.jsonl")
        with locked(path):
            append_records_allowed = True
        assert append_records_allowed
        # A second acquisition after release succeeds.
        with locked(path):
            pass


class TestRewrite:
    def test_rewrite_replaces_contents_atomically(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        append_records(path, [{"i": i} for i in range(10)])
        count = rewrite_records(path, [{"i": 1}, {"i": 2}])
        assert count == 2
        records, skipped = load_records(path, accept_all)
        assert [r["i"] for r in records] == [1, 2]
        assert skipped == 0
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_rewrite_twice_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        records = [{"i": i, "payload": "x" * i} for i in range(20)]
        rewrite_records(path, records)
        first = open(path, "rb").read()
        rewrite_records(path, records)
        assert open(path, "rb").read() == first

    def test_an_append_after_another_process_rewrites_lands_in_the_new_file(
            self, tmp_path):
        # Appends open the data file anew under the lock, so they follow the
        # inode a compaction in another process swapped in.
        path = str(tmp_path / "store.jsonl")
        append_record(path, {"i": 0})
        before = os.stat(path).st_ino
        process = multiprocessing.Process(
            target=rewrite_records, args=(path, [{"i": 1}, {"i": 2}]))
        process.start()
        process.join(60)
        assert process.exitcode == 0
        assert os.stat(path).st_ino != before
        append_record(path, {"i": 3})
        records, skipped = load_records(path, accept_all)
        assert [r["i"] for r in records] == [1, 2, 3]
        assert skipped == 0

    def test_rewrite_failure_cleans_up_and_preserves_store(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        append_record(path, {"keep": True})

        def poisoned():
            yield {"i": 0}
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            rewrite_records(path, poisoned())
        records, _ = load_records(path, accept_all)
        assert records == [{"keep": True}]
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []


# -- the multiprocess hammer -------------------------------------------------------


def _hammer_worker(path, worker, count, barrier):
    # A fat payload makes torn writes overwhelmingly likely without the
    # lock: each line is several kiB, far beyond any atomic-write size a
    # buffered "a"-mode stream would otherwise give for free.
    barrier.wait()
    for index in range(count):
        append_record(path, {"worker": worker, "index": index,
                             "pad": "x" * 4096})


class TestMultiprocessHammer:
    def test_concurrent_appends_never_tear_lines(self, tmp_path):
        path = str(tmp_path / "hammer.jsonl")
        workers, per_worker = 4, 25
        barrier = multiprocessing.Barrier(workers)
        processes = [
            multiprocessing.Process(target=_hammer_worker,
                                    args=(path, worker, per_worker, barrier))
            for worker in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(60)
            assert process.exitcode == 0

        records, skipped = load_records(path, accept_all)
        # The regression: a torn line parses as garbage and is *silently
        # skipped* — so the assertion that matters is skipped == 0, not
        # just the total count.
        assert skipped == 0
        assert len(records) == workers * per_worker
        seen = {(r["worker"], r["index"]) for r in records}
        assert len(seen) == workers * per_worker

    def test_store_level_skipped_lines_stays_zero(self, tmp_path):
        from repro.explore.store import ResultStore, StoreKey

        path = str(tmp_path / "hammer.jsonl")
        workers, per_worker = 3, 10
        barrier = multiprocessing.Barrier(workers)
        processes = [
            multiprocessing.Process(target=_store_hammer_worker,
                                    args=(path, worker, per_worker, barrier))
            for worker in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(60)
            assert process.exitcode == 0

        store = ResultStore(path)
        assert store.skipped_lines == 0
        assert len(store) == workers * per_worker
        key = StoreKey(fingerprint="w0-0", clock_period=1500.0,
                       pipeline_ii=None, margin_fraction=0.05)
        assert store.lookup(key)["saving_percent"] == 10.0


def _store_hammer_worker(path, worker, count, barrier):
    from repro.explore.store import ResultStore, StoreKey

    barrier.wait()
    store = ResultStore(path)
    for index in range(count):
        key = StoreKey(fingerprint=f"w{worker}-{index}", clock_period=1500.0,
                       pipeline_ii=None, margin_fraction=0.05)
        store.record(key, {"saving_percent": 10.0, "pad": "y" * 2048},
                  workload=f"w{worker}")
