"""Tests of the serve job model: specs, fingerprints and records."""

import json

import pytest

from repro.errors import ReproError
from repro.serve.fakes import (
    explore_payload,
    submit_design_payload,
    sweep_payload,
)
from repro.serve.jobs import (
    JOB_KINDS,
    JOB_SCHEMA,
    ExploreJob,
    JobRecord,
    JobSpec,
    SweepJob,
)


class TestJobSpec:
    def test_round_trips_every_kind(self):
        payloads = {
            "submit-design": submit_design_payload(),
            "sweep": sweep_payload(),
            "explore": explore_payload(),
        }
        assert set(payloads) == set(JOB_KINDS)
        for kind, payload in payloads.items():
            spec = JobSpec(kind=kind, payload=payload, tenant="team-a")
            again = JobSpec.from_dict(spec.to_dict())
            assert again == spec
            json.dumps(spec.to_dict())  # JSON-safe by construction

    def test_payload_parses_to_the_owning_layers_object(self):
        from repro.verify.scenarios import ScenarioSpec

        assert isinstance(
            JobSpec("submit-design", submit_design_payload()).parse_payload(),
            ScenarioSpec)
        assert isinstance(JobSpec("sweep", sweep_payload()).parse_payload(),
                          SweepJob)
        assert isinstance(
            JobSpec("explore", explore_payload()).parse_payload(), ExploreJob)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            JobSpec(kind="train-model", payload={})

    def test_malformed_payload_rejected_at_construction(self):
        # Eager validation: a worker never sees a payload the owning
        # layer's from_dict would refuse.
        with pytest.raises(ReproError):
            JobSpec(kind="sweep", payload={"workload": "no-such-kernel",
                                           "latencies": [6]})
        with pytest.raises(ReproError):
            JobSpec(kind="submit-design", payload={"not": "a scenario"})

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(ReproError):
            JobSpec(kind="sweep", payload=[1, 2, 3])

    def test_fingerprint_is_tenant_independent(self):
        payload = sweep_payload()
        a = JobSpec("sweep", payload, tenant="team-a")
        b = JobSpec("sweep", payload, tenant="team-b")
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_separates_kind_and_payload(self):
        assert JobSpec("sweep", sweep_payload()).fingerprint() \
            != JobSpec("sweep", sweep_payload(latencies=(6, 10))).fingerprint()

    def test_payload_is_frozen_copy(self):
        payload = sweep_payload()
        spec = JobSpec("sweep", payload)
        payload["latencies"].append(99)
        assert 99 not in spec.payload["latencies"]

    def test_bad_schema_rejected(self):
        data = JobSpec("sweep", sweep_payload()).to_dict()
        data["schema"] = JOB_SCHEMA + 1
        with pytest.raises(ReproError):
            JobSpec.from_dict(data)


def test_jobs_round_trip_through_json():
    """The sweep and explore payload formats: ``to_dict`` gives back the
    payload dict, and ``from_dict`` of it gives back the job."""
    for kind, job_class, payload in (
            ("sweep", SweepJob, sweep_payload()),
            ("explore", ExploreJob, explore_payload())):
        job = JobSpec(kind, payload).parse_payload()
        assert isinstance(job, job_class)
        assert job.to_dict() == payload
        assert job_class.from_dict(json.loads(json.dumps(job.to_dict()))) \
            == job
    sweep = SweepJob(workload="fir", latencies=(5, 4), ii_values=(2, 1),
                     params=(("taps", 4),))
    assert sweep.to_dict() == {
        "workload": "fir", "latencies": [5, 4], "clocks": [1500.0],
        "ii_values": [2, 1], "margin_fraction": 0.05,
        "params": {"taps": 4}}
    assert ExploreJob(workload="idct", latencies=(8, 10)).to_dict() == {
        "workload": "idct", "latencies": [8, 10], "clock_period": 1500.0,
        "margin_fraction": 0.05, "objectives": ["latency_steps", "area"],
        "coarse_points": 5, "params": {}}


def test_job_validation_errors():
    with pytest.raises(ReproError):
        SweepJob(workload="idct", latencies=())
    with pytest.raises(ReproError):
        SweepJob(workload="idct", latencies=(8,), clocks=())
    with pytest.raises(ReproError):
        SweepJob(workload="idct", latencies=(8,), ii_values=(0,))
    with pytest.raises(ReproError):
        ExploreJob(workload="idct", latencies=())


def test_sweep_points_are_canonically_ordered():
    job = SweepJob(workload="idct", latencies=(8, 6), clocks=(2000.0, 1500.0),
                   ii_values=(2, 1), params=(("rows", 1),))
    names = [point.name for point in job.points()]
    assert names == [
        "idct_L6_T1500_ii1", "idct_L6_T1500_ii2",
        "idct_L6_T2000_ii1", "idct_L6_T2000_ii2",
        "idct_L8_T1500_ii1", "idct_L8_T1500_ii2",
        "idct_L8_T2000_ii1", "idct_L8_T2000_ii2",
    ]
    assert job.scheduling == "pipeline"
    block = SweepJob(workload="idct", latencies=(6,), params=(("rows", 1),))
    assert block.scheduling == "block"


class TestJobRecord:
    def _record(self):
        return JobRecord(job_id="job-000001",
                         spec=JobSpec("sweep", sweep_payload()),
                         state="done", seq=1,
                         result={"points": []},
                         attempts=[{"index": 0, "outcome": "ok"}])

    def test_round_trip(self):
        record = self._record()
        again = JobRecord.from_dict(record.to_dict())
        assert again == record
        json.dumps(record.to_dict())

    def test_status_view_has_no_result_body(self):
        record = self._record()
        status = record.status()
        assert status["job_id"] == "job-000001"
        assert status["state"] == "done"
        assert status["kind"] == "sweep"
        assert status["fingerprint"] == record.spec.fingerprint()
        assert status["attempts"] == 1
        assert "result" not in status

    def test_terminal_states(self):
        record = self._record()
        for state, terminal in [("pending", False), ("running", False),
                                ("done", True), ("failed", True),
                                ("cancelled", True), ("timeout", True)]:
            record.state = state
            assert record.terminal is terminal

    def test_unknown_state_rejected(self):
        data = self._record().to_dict()
        data["state"] = "paused"
        with pytest.raises(ReproError):
            JobRecord.from_dict(data)
