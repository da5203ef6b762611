"""run_shard end-to-end on a tiny campaign: artifacts, manifest, determinism."""

import json
import os

import pytest

from repro.campaign.merge import CORPUS_FILE, METRICS_FILE, STORE_FILE
from repro.campaign.shard import run_shard
from repro.campaign.spec import CampaignSpec, ExploreJob, SweepJob
from repro.errors import ReproError
from repro.explore.store import ResultStore
from repro.verify.corpus import Corpus

TINY = CampaignSpec(
    name="tiny",
    seed=5,
    shards=2,
    fuzz_iterations=4,
    fuzz_max_segments=3,
    sweeps=(SweepJob(workload="idct", latencies=(6, 7, 8),
                     params=(("rows", 1),)),),
)


@pytest.fixture(scope="module")
def shard0(tmp_path_factory, library):
    out = str(tmp_path_factory.mktemp("campaign") / "s0")
    manifest = run_shard(TINY, 0, out, library=library)
    return out, manifest


def test_shard_writes_all_three_artifacts(shard0):
    out, _ = shard0
    for name in (CORPUS_FILE, STORE_FILE, METRICS_FILE):
        assert os.path.exists(os.path.join(out, name)), name


def test_shard_manifest_shape(shard0):
    out, manifest = shard0
    assert manifest["schema"] == 1
    assert manifest["campaign"] == "tiny"
    assert manifest["seed"] == 5
    assert manifest["plan"]["index"] == 0
    assert manifest["fuzz"]["seed"] == 5
    assert manifest["fuzz"]["iterations"] == 2
    assert manifest["fuzz"]["scenario_digest"]
    assert manifest["sweeps"][0]["workload"] == "idct"
    assert manifest["skipped_lines"] == {"corpus": 0, "store": 0}
    assert "counters" in manifest["metrics"]
    assert "jsonl_stores" in manifest["cache"]
    # The written manifest is the returned one.
    with open(os.path.join(out, METRICS_FILE), "r", encoding="utf-8") as handle:
        assert json.load(handle) == json.loads(json.dumps(manifest))


def test_shard_store_holds_its_slice_of_the_grid(shard0):
    out, manifest = shard0
    store = ResultStore(os.path.join(out, STORE_FILE))
    assert len(store) == manifest["store_records"]
    # Shard 0 of 2 owns the even points of the 3-point grid (round-robin).
    assert len(store) == 2
    names = sorted(record["point"]["name"] for record in store.records())
    assert names == ["idct_L6_T1500", "idct_L8_T1500"]
    for record in store.records():
        assert record["workload"] == "idct"
        assert "area" in record["metrics"]["slack_based"]


def test_shard_corpus_loads_and_matches_manifest(shard0):
    out, manifest = shard0
    corpus = Corpus(os.path.join(out, CORPUS_FILE))
    assert len(corpus) == manifest["corpus_records"]
    assert manifest["fuzz"]["failures"] == len(corpus)


def test_shard_runs_are_byte_identical(shard0, tmp_path, library):
    out, _ = shard0
    again = str(tmp_path / "again")
    run_shard(TINY, 0, again, library=library)
    for name in (CORPUS_FILE, STORE_FILE):
        with open(os.path.join(out, name), "rb") as first, \
                open(os.path.join(again, name), "rb") as second:
            assert first.read() == second.read(), name


def test_shard_index_out_of_range(tmp_path, library):
    with pytest.raises(ReproError):
        run_shard(TINY, 2, str(tmp_path / "nope"), library=library)
    with pytest.raises(ReproError):
        run_shard(TINY, -1, str(tmp_path / "nope"), library=library)


def test_exploration_shard_populates_the_store(tmp_path, library):
    spec = CampaignSpec(
        name="explore-only",
        seed=1,
        explorations=(ExploreJob(workload="idct", latencies=(6, 7, 8),
                                 coarse_points=2, params=(("rows", 1),)),),
    )
    out = str(tmp_path / "explore")
    manifest = run_shard(spec, 0, out, library=library)
    assert manifest["explorations"][0]["front_size"] >= 1
    store = ResultStore(os.path.join(out, STORE_FILE))
    assert len(store) >= 2
    assert store.workloads() == ["idct"]


def test_sweep_failures_land_in_the_summary(tmp_path, library, monkeypatch):
    """A failing sweep point is reported in the job summary; the shard
    still stores the other points instead of aborting."""
    from repro.workloads.factories import IDCTPointFactory

    build = IDCTPointFactory.__call__

    def flaky(self, point):
        if point.latency == 6:
            raise ReproError("injected failure")
        return build(self, point)

    monkeypatch.setattr(IDCTPointFactory, "__call__", flaky)
    spec = CampaignSpec(name="flaky", seed=5,
                        sweeps=(SweepJob(workload="idct", latencies=(6, 7),
                                         params=(("rows", 1),)),))
    out = str(tmp_path / "flaky")
    manifest = run_shard(spec, 0, out, library=library)
    assert manifest["sweeps"][0]["failures"] == [
        {"point": "idct_L6_T1500", "error": "ReproError: injected failure"}]
    store = ResultStore(os.path.join(out, STORE_FILE))
    assert [record["point"]["name"] for record in store.records()] \
        == ["idct_L7_T1500"]


def test_progress_callback_narrates_the_stages(tmp_path, library):
    messages = []
    run_shard(TINY, 1, str(tmp_path / "s1"), library=library,
              progress=messages.append)
    assert any("fuzz" in message for message in messages)
    assert any("sweep" in message for message in messages)
