"""A campaign shard looks its store up before it evaluates: rerunning a
shard into the same output directory evaluates nothing and leaves the
store byte-identical."""

import os

from repro.campaign.merge import STORE_FILE
from repro.campaign.shard import run_shard
from repro.campaign.spec import CampaignSpec, ExploreJob, SweepJob

SPEC = CampaignSpec(
    name="resume",
    seed=3,
    sweeps=(SweepJob(workload="idct", latencies=(6, 7),
                     params=(("rows", 1),)),),
    explorations=(ExploreJob(workload="idct", latencies=(6, 7, 8, 9),
                             coarse_points=3, params=(("rows", 1),)),),
)


def test_shard_rerun_evaluates_nothing(tmp_path, library):
    out = str(tmp_path / "shard")
    path = os.path.join(out, STORE_FILE)
    first = run_shard(SPEC, 0, out, library=library)
    with open(path, "rb") as handle:
        written = handle.read()
    again = run_shard(SPEC, 0, out, library=library)

    assert first["sweeps"][0]["session"]["points_evaluated"] == 2
    assert again["sweeps"][0]["session"]["points_evaluated"] == 0
    assert again["sweeps"][0]["failures"] == []
    assert again["explorations"][0]["engine_evaluations"] == 0
    with open(path, "rb") as handle:
        assert handle.read() == written
