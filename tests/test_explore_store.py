"""Tests of the persistent JSONL result store.

The keyed-file behaviour it shares with the corpus (missing files, the
directory check, tolerant loading, compaction, merging) is tested once
for both in ``test_core_keyed_store.py``.
"""

import json

from repro.explore.store import EVALUATED, ResultStore, StoreKey, memoized_run
from repro.flows.dse import DesignPoint, run_dse, latency_grid
from repro.flows.sweep import SweepSession
from repro.workloads import KernelPointFactory

FIR = KernelPointFactory("fir", params=(("taps", 4),))


def make_key(fingerprint="f" * 8, clock=1500.0, ii=None, margin=0.05):
    return StoreKey(fingerprint=fingerprint, clock_period=clock,
                    pipeline_ii=ii, margin_fraction=margin)


def metrics_record(name="P1", latency=8, area=100.0):
    return {
        "point": {"name": name, "latency": latency, "pipeline_ii": None,
                  "clock_period": 1500.0},
        "slack_based": {"area": area, "power": 1.0, "throughput": 0.1,
                        "latency_steps": latency, "meets_timing": True,
                        "fu_instances": 1, "registers": 1},
        "conventional": {"area": area * 1.2, "power": 1.2, "throughput": 0.1,
                         "latency_steps": latency, "meets_timing": True,
                         "fu_instances": 1, "registers": 1},
        "saving_percent": 16.7,
    }


class TestRoundTrip:
    def test_put_get_and_reload(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        key = make_key()
        store.record(key, metrics_record(), workload="fir")
        assert key in store
        assert store.lookup(key)["saving_percent"] == 16.7

        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.lookup(key) == store.lookup(key)
        assert reloaded.get(key)["workload"] == "fir"
        assert reloaded.get(key)["point"]["name"] == "P1"

    def test_in_memory_store_has_same_semantics(self):
        store = ResultStore(None)
        key = make_key()
        store.record(key, metrics_record())
        assert store.lookup(key)["saving_percent"] == 16.7

    def test_last_record_wins_on_duplicate_keys(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        key = make_key()
        store.record(key, metrics_record(area=100.0))
        store.record(key, metrics_record(area=200.0))
        assert store.lookup(key)["slack_based"]["area"] == 200.0
        # Both lines are on disk (append-only), the later one wins on load.
        with open(path) as handle:
            assert len(handle.readlines()) == 2
        assert ResultStore(path).lookup(key)["slack_based"]["area"] == 200.0

    def test_keys_distinguish_clock_ii_margin_and_fingerprint(self, tmp_path):
        store = ResultStore(str(tmp_path / "store.jsonl"))
        base = make_key()
        store.record(base, metrics_record())
        for other in (make_key(clock=2000.0), make_key(ii=4),
                      make_key(margin=0.1), make_key(fingerprint="g" * 8)):
            assert other not in store


class TestRobustness:
    def test_corrupt_and_foreign_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        key = make_key()
        store.record(key, metrics_record())
        good = {"schema": 1, "key": make_key(fingerprint="g" * 8).as_dict(),
                "metrics": {}}
        with open(path, "a", encoding="utf-8") as handle:
            for foreign in ({"schema": 999}, {"key": "not a dict"},
                            {"metrics": ["not a dict"]},
                            {"key": {"fingerprint": "x"}}):  # incomplete key
                handle.write(json.dumps({**good, **foreign}) + "\n")
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 4
        assert reloaded.lookup(key) is not None

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        store.record(make_key(), metrics_record())
        line = json.dumps({"schema": 1,
                           "key": make_key(fingerprint="h" * 8).as_dict(),
                           "metrics": metrics_record()})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[:len(line) // 2])  # simulated crash mid-write
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 1


class TestDSEResultImportExport:
    def test_round_trip_through_a_real_sweep(self, library, tmp_path):
        points = latency_grid(4, 6)
        result = run_dse(FIR, library, points)
        path = str(tmp_path / "store.jsonl")
        outcomes, failures = memoized_run(SweepSession(FIR, library), points,
                                          ResultStore(path), workload="fir")
        assert failures == []
        assert [outcome.source for outcome in outcomes] == [EVALUATED] * 3

        records = ResultStore(path).records()
        assert {record["workload"] for record in records} == {"fir"}
        exported = [record["metrics"] for record in records]
        assert sorted(m["point"]["name"] for m in exported) \
            == [p.name for p in points]
        assert exported[0]["slack_based"]["area"] > 0
        # The export is exactly the sweep's own metrics list.
        by_name = {m["point"]["name"]: m for m in exported}
        for entry in result.entries:
            assert by_name[entry.point.name] == entry.metrics()

    def test_records_keep_their_workload_tag(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        store.record(make_key(fingerprint="a" * 8), metrics_record(),
                     workload="w1")
        store.record(make_key(fingerprint="b" * 8), metrics_record(),
                     workload="w2")
        assert [record["workload"] for record in ResultStore(path).records()] \
            == ["w1", "w2"]


class TestCompaction:
    def test_stale_lines_count_superseded_puts(self, tmp_path):
        store = ResultStore(str(tmp_path / "store.jsonl"))
        store.record(make_key(), metrics_record(area=100.0))
        assert store.stale_lines == 0
        for area in (110.0, 120.0, 130.0):
            store.record(make_key(), metrics_record(area=area))
        # Three re-records of the same key: three superseded disk lines.
        assert len(store) == 1
        assert store.stale_lines == 3

    def test_compact_drops_stale_lines_and_keeps_last_record(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        for area in (100.0, 110.0, 120.0):
            store.record(make_key(), metrics_record(area=area))
        store.record(make_key(fingerprint="b" * 8), metrics_record(area=7.0))
        assert store.compact() == 2
        assert store.stale_lines == 0

        reloaded = ResultStore(path)
        assert len(reloaded) == 2
        assert reloaded.skipped_lines == 0
        assert reloaded.lookup(make_key())["slack_based"]["area"] == 120.0

    def test_memo_cache_compacts_at_the_threshold(self, tmp_path):
        from repro.serve.cache import MemoCache

        cache = MemoCache(path=str(tmp_path / "store.jsonl"),
                          compact_after=3)
        key = make_key()
        for area in (1.0, 2.0, 3.0):
            cache.record(key, metrics_record(area=area))
        assert cache.compactions == 0  # 2 stale lines: below the bar
        cache.record(key, metrics_record(area=4.0))
        assert cache.compactions == 1
        assert cache.stale_lines == 0
        assert cache.lookup(key)["slack_based"]["area"] == 4.0
