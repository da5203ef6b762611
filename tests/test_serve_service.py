"""Contract tests of :class:`repro.serve.service.DSEService`.

Everything except the byte-identity property tests and the pool-timeout
test (only real flows reach the process pool) runs against the fakes in
:mod:`repro.serve.fakes` — no real flows, no sockets, no sleeping beyond
the sub-second timeout scenarios.  The fake evaluator's call log is
the ground truth for "flow evaluations actually performed", which is what
the memoization guarantees are asserted against.
"""

import functools
import hashlib
import json
import sys
import time

import pytest

from repro.errors import ReproError
from repro.serve import service as service_module
from repro.serve.fakes import (
    FakeClock,
    FakeEvaluator,
    HangingEvaluator,
    explore_payload,
    submit_design_payload,
    sweep_payload,
)
from repro.serve.jobs import JobSpec
from repro.serve.retry import RetryPolicy, run_with_retry
from repro.serve.service import DSEService, JobStateError, UnknownJobError


def _service(tmp_path=None, **kwargs):
    if tmp_path is not None:
        kwargs.setdefault("store_path", str(tmp_path / "store.jsonl"))
        kwargs.setdefault("queue_path", str(tmp_path / "queue.jsonl"))
    kwargs.setdefault("evaluator", FakeEvaluator())
    kwargs.setdefault("library", object())  # fakes never touch the library
    return DSEService(**kwargs)


def _wait_terminal(service, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = service.status(job_id)
        if status["state"] in ("done", "failed", "cancelled", "timeout"):
            return status
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} still "
                         f"{service.status(job_id)['state']} after {timeout}s")


class TestEndpoints:
    def test_submit_run_result_round_trip(self):
        service = _service()
        receipt = service.submit({"kind": "sweep",
                                  "payload": sweep_payload()})
        assert receipt["state"] == "pending"
        assert service.run_pending() == 1

        status = service.status(receipt["job_id"])
        assert status["state"] == "done"
        assert status["fingerprint"] == receipt["fingerprint"]

        result = service.result(receipt["job_id"])["result"]
        assert result["evaluations"] == 2 and result["cache_hits"] == 0
        assert [p["point"]["latency"] for p in result["points"]] == [6, 8]

    def test_unknown_job_raises_unknown_job_error(self):
        service = _service()
        for endpoint in (service.status, service.result, service.cancel):
            with pytest.raises(UnknownJobError):
                endpoint("job-424242")

    def test_result_of_unfinished_job_raises_state_error(self):
        service = _service()
        receipt = service.submit(JobSpec("sweep", sweep_payload()))
        with pytest.raises(JobStateError):
            service.result(receipt["job_id"])

    def test_cancel_pending_but_not_finished(self):
        service = _service()
        receipt = service.submit(JobSpec("sweep", sweep_payload()))
        assert service.cancel(receipt["job_id"])["state"] == "cancelled"
        assert service.run_pending() == 0  # nothing left to claim

        finished = service.submit(JobSpec("sweep", sweep_payload()))
        service.run_pending()
        with pytest.raises(JobStateError):
            service.cancel(finished["job_id"])

    def test_malformed_submission_rejected_eagerly(self):
        service = _service()
        with pytest.raises(ReproError):
            service.submit({"kind": "sweep",
                            "payload": {"workload": "no-such-kernel",
                                        "latencies": [6]}})
        assert len(service.queue) == 0  # nothing was enqueued

    def test_stats_reports_queue_cache_and_policy(self):
        service = _service()
        service.submit(JobSpec("sweep", sweep_payload()))
        service.run_pending()
        stats = service.stats()
        assert stats["jobs"] == {"done": 1}
        assert stats["cache"]["misses"] == 2
        assert stats["cache"]["puts"] == 2
        assert stats["retry"]["max_attempts"] >= 1
        json.dumps(stats)

    def test_endpoint_latency_histograms_advance(self):
        from repro.obs.metrics import histogram

        before = histogram("serve.endpoint.submit.seconds").count
        service = _service()
        service.submit(JobSpec("sweep", sweep_payload()))
        assert histogram("serve.endpoint.submit.seconds").count == before + 1


class TestMemoization:
    def test_warm_resubmit_performs_zero_evaluations(self, tmp_path):
        # The ISSUE acceptance criterion: a repeated submission whose
        # fingerprint is already evaluated completes with zero new flow
        # evaluations, asserted via the evaluator call log AND the
        # service's own counters.
        fake = FakeEvaluator()
        cold = _service(tmp_path, evaluator=fake)
        receipt = cold.submit(JobSpec("sweep", sweep_payload()))
        cold.run_pending()
        assert len(fake.calls) == 2

        warm_fake = FakeEvaluator()
        warm = _service(tmp_path, evaluator=warm_fake)
        again = warm.submit(JobSpec("sweep", sweep_payload()))
        assert again["fingerprint"] == receipt["fingerprint"]
        warm.run_pending()

        result = warm.result(again["job_id"])["result"]
        assert warm_fake.calls == []  # zero new flow evaluations
        assert result["evaluations"] == 0
        assert result["cache_hits"] == 2
        assert warm.cache.hits == 2 and warm.cache.misses == 0

    def test_warm_results_are_byte_identical_to_cold(self, tmp_path):
        cold = _service(tmp_path)
        first = cold.submit(JobSpec("sweep", sweep_payload()))
        cold.run_pending()
        cold_points = cold.result(first["job_id"])["result"]["points"]

        warm = _service(tmp_path, evaluator=FakeEvaluator())
        second = warm.submit(JobSpec("sweep", sweep_payload()))
        warm.run_pending()
        warm_points = warm.result(second["job_id"])["result"]["points"]
        assert json.dumps(warm_points, sort_keys=True) \
            == json.dumps(cold_points, sort_keys=True)

    def test_cache_is_shared_across_tenants_and_kinds(self):
        # One tenant's sweep warms the other tenant's scenario-free sweep:
        # the memo key is the work, not the submitter.
        fake = FakeEvaluator()
        service = _service(evaluator=fake)
        a = service.submit(JobSpec("sweep", sweep_payload(), tenant="team-a"))
        b = service.submit(JobSpec("sweep", sweep_payload(), tenant="team-b"))
        service.run_pending()
        assert len(fake.calls) == 2  # team-b's job was served from memo
        assert service.result(b["job_id"])["result"]["cache_hits"] == 2
        assert service.result(a["job_id"])["result"]["tenant"] == "team-a"

    def test_partial_overlap_only_evaluates_the_new_points(self):
        fake = FakeEvaluator()
        service = _service(evaluator=fake)
        service.submit(JobSpec("sweep", sweep_payload(latencies=(6, 8))))
        overlap = service.submit(
            JobSpec("sweep", sweep_payload(latencies=(8, 10))))
        service.run_pending()
        result = service.result(overlap["job_id"])["result"]
        assert result["cache_hits"] == 1 and result["evaluations"] == 1
        assert fake.calls.count("idct_L8_T1500") == 1

    def test_explore_jobs_share_the_same_store(self):
        fake = FakeEvaluator()
        service = _service(evaluator=fake)
        sweep = service.submit(JobSpec(
            "sweep", sweep_payload(latencies=tuple(range(6, 17)))))
        service.run_pending()
        swept = len(fake.calls)
        assert swept == 11

        explore = service.submit(JobSpec("explore", explore_payload(
            latencies=(6, 16))))
        service.run_pending()
        result = service.result(explore["job_id"])["result"]
        assert result["kind"] == "explore"
        assert result["front"]  # a real Pareto front came back
        # Every point the exploration touched was already in the store.
        assert len(fake.calls) == swept
        assert result["evaluations"] == 0
        assert service.result(sweep["job_id"])["result"]["evaluations"] == 11


@pytest.fixture
def key_for_calls(monkeypatch):
    """The points :func:`memoized_run` keyed by building their designs."""
    from repro.explore import store

    calls = []
    key_for = store.key_for

    def spy(design, point, *args, **kwargs):
        calls.append(point.name)
        return key_for(design, point, *args, **kwargs)

    monkeypatch.setattr(store, "key_for", spy)
    return calls


#: A submitted design and a two-point sweep: the job kinds keyed by points.
KEYED_JOBS = [("submit-design", submit_design_payload()),
              ("sweep", sweep_payload())]


class TestRememberedKeys:
    """A resubmitted payload is keyed from the store keys the service
    remembered for its fingerprint: no design is built or fingerprinted."""

    @pytest.mark.parametrize("kind, payload", KEYED_JOBS)
    def test_a_resubmission_builds_no_design(self, kind, payload,
                                             key_for_calls):
        service = _service()
        cold = service.submit(JobSpec(kind, payload, tenant="team-a"))
        service.run_pending()
        points = len(service.result(cold["job_id"])["result"]["points"])
        assert len(key_for_calls) == points

        warm = service.submit(JobSpec(kind, payload, tenant="team-b"))
        service.run_pending()
        assert len(key_for_calls) == points  # none on the resubmission
        cold_body = service.result(cold["job_id"])["result"]
        warm_body = service.result(warm["job_id"])["result"]
        assert warm_body["points"] == cold_body["points"]
        assert (warm_body["evaluations"], warm_body["cache_hits"]) \
            == (0, points)
        assert service.stats()["cache"]["keys_reused"] == points

    @pytest.mark.parametrize("kind, payload", KEYED_JOBS)
    def test_remembered_keys_equal_freshly_derived_keys(self, kind, payload):
        from repro.explore.store import key_for

        service = _service()
        spec = JobSpec(kind, payload)
        service.submit(spec)
        service.run_pending()
        job = spec.parse_payload()
        sweep = kind == "sweep"
        points = job.points() if sweep else [job.point(name=job.name)]
        factory = job.factory()
        assert service.cache.remembered_keys(spec.fingerprint()) == [
            key_for(factory(point), point, job.margin_fraction,
                    scheduling=job.scheduling if sweep else "block")
            for point in points]

    def test_a_lost_record_is_evaluated_again_under_its_key(self,
                                                            key_for_calls):
        fake = FakeEvaluator()
        service = _service(evaluator=fake)
        spec = JobSpec("sweep", sweep_payload())
        service.submit(spec)
        service.run_pending()
        lost = service.cache.remembered_keys(spec.fingerprint())[0]
        del service.cache._records[lost]  # the memo no longer holds it

        again = service.submit(spec)
        service.run_pending()
        body = service.result(again["job_id"])["result"]
        assert (body["evaluations"], body["cache_hits"]) == (1, 1)
        assert fake.calls == ["idct_L6_T1500", "idct_L8_T1500",
                              "idct_L6_T1500"]
        assert len(key_for_calls) == 2  # the cold job's keys only
        assert service.cache.lookup(lost) == body["points"][0]
        assert service.cache.puts == 3

    @pytest.mark.parametrize("threads", [2, 4])
    def test_resubmissions_on_worker_threads(self, key_for_calls, threads):
        # A shortened switch interval makes the workers interleave often; a
        # lost update of the map or of the tally would break the counts.
        service = _service()
        payloads = [sweep_payload(latencies=(lat,)) for lat in (6, 8, 10)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        service.start_workers(threads)
        try:
            cold = [service.submit(JobSpec("sweep", payload, tenant="a"))
                    for payload in payloads]
            for receipt in cold:
                assert _wait_terminal(service,
                                      receipt["job_id"])["state"] == "done"
            warm = [service.submit(JobSpec("sweep", payload, tenant=tenant))
                    for tenant in ("b", "c", "d") for payload in payloads]
            for receipt in warm:
                assert _wait_terminal(service,
                                      receipt["job_id"])["state"] == "done"
        finally:
            service.stop_workers()
            sys.setswitchinterval(interval)
        assert sorted(key_for_calls) == sorted(f"idct_L{lat}_T1500"
                                               for lat in (6, 8, 10))
        assert service.cache.keys_reused == len(warm)
        bodies = [service.result(receipt["job_id"])["result"]
                  for receipt in cold + warm]
        for index, body in enumerate(bodies[3:]):
            assert body["points"] == bodies[index % 3]["points"]
            assert body["evaluations"] == 0


#: sha256 of what :func:`_served_bytes` reads back: the same bytes as when
#: each job parsed and hashed its payload again on every use.
_SERVED_BYTES = "6895ca97abff59f7d40e559940f3ed62ffabd1329c8723cdd058c4d480428e51"


def _served_bytes(tmp_path):
    """Run a cold and a warm job of each kind, submitted as JSON requests;
    returns how many jobs ran and one sha256 of every receipt, status
    view, journal line (elapsed times zeroed) and store line."""
    service = _service(tmp_path)
    receipts = []
    for tenant in ("a", "b"):
        for kind, payload in KEYED_JOBS + [("explore", explore_payload())]:
            receipt = service.submit({"kind": kind, "payload": payload,
                                      "tenant": tenant})
            service.run_pending()
            receipts.append([receipt, service.status(receipt["job_id"])])
    journal = []
    with open(tmp_path / "queue.jsonl", "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            for attempt in record["attempts"]:
                attempt["elapsed_seconds"] = 0.0
            journal.append(json.dumps(record, sort_keys=True))
    with open(tmp_path / "store.jsonl", "r", encoding="utf-8") as handle:
        store = handle.read()
    payload = json.dumps([receipts, journal, store], sort_keys=True)
    return len(receipts), hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_a_job_parses_and_hashes_its_payload_once(tmp_path, monkeypatch):
    calls = {"_parse": 0, "_hash": 0}

    def counted(name):
        original = getattr(JobSpec, name)

        def spy(self):
            calls[name] += 1
            return original(self)
        return spy

    for name in calls:
        monkeypatch.setattr(JobSpec, name, counted(name))
    jobs, digest = _served_bytes(tmp_path)
    assert calls == {"_parse": jobs, "_hash": jobs}
    assert digest == _SERVED_BYTES


@pytest.fixture
def backoff_clock(monkeypatch):
    """The service's retry loop sleeps on a fake clock, never for real."""
    clock = FakeClock()
    monkeypatch.setattr(service_module, "run_with_retry",
                        functools.partial(run_with_retry, sleep=clock.sleep))
    return clock


class TestRetryAndTimeout:
    def test_transient_failures_are_retried_to_success(self, backoff_clock):
        fake = FakeEvaluator(fail_times=1)
        retry = RetryPolicy(max_attempts=3)
        service = _service(evaluator=fake, retry=retry)
        receipt = service.submit(JobSpec("sweep", sweep_payload()))
        service.run_pending()
        status = service.status(receipt["job_id"])
        assert status["state"] == "done"
        assert status["attempts"] == 2
        assert backoff_clock.sleeps == retry.backoff_sequence()[:1]

    def test_exhausted_retries_yield_structured_failure(self, backoff_clock):
        fake = FakeEvaluator(fail_times=99)
        service = _service(evaluator=fake,
                           retry=RetryPolicy(max_attempts=2))
        receipt = service.submit(JobSpec("sweep", sweep_payload()))
        service.run_pending()
        status = service.status(receipt["job_id"])
        assert status["state"] == "failed"
        assert status["failure"]["kind"] == "error"
        assert "injected failure" in status["failure"]["error"]
        assert len(status["failure"]["attempts"]) == 2
        with pytest.raises(JobStateError):
            service.result(receipt["job_id"])

    def test_deadline_returns_structured_timeout_without_stalling(self):
        # The ISSUE acceptance criterion: a hanging job is cut at the
        # retry deadline with a structured timeout failure, and the SAME
        # worker thread goes on to complete the next job — the pool never
        # stalls behind the hang.
        hanging = HangingEvaluator(hang_seconds=30.0)
        fake = FakeEvaluator()

        def evaluator(factory, library, point, margin_fraction, scheduling):
            if point.latency == 6:
                return hanging(factory, library, point, margin_fraction,
                               scheduling)
            return fake(factory, library, point, margin_fraction, scheduling)

        service = _service(
            evaluator=evaluator,
            retry=RetryPolicy(max_attempts=3, deadline_seconds=0.2))
        hung = service.submit(JobSpec("sweep", sweep_payload(latencies=(6,))))
        healthy = service.submit(
            JobSpec("sweep", sweep_payload(latencies=(8,))))
        service.start_workers(1)
        try:
            timed_out = _wait_terminal(service, hung["job_id"])
            completed = _wait_terminal(service, healthy["job_id"])
        finally:
            service.stop_workers()

        assert timed_out["state"] == "timeout"
        assert timed_out["failure"]["kind"] == "timeout"
        assert timed_out["attempts"] == 1  # timeouts are terminal, no retry
        assert completed["state"] == "done"
        assert fake.calls == ["idct_L8_T1500"]

    def test_timed_out_pool_job_leaves_no_worker_running(self, library):
        # rows=2 D2 and D7 (latencies 28 and 10) take seconds each; the
        # cutoff reaches both pool workers, and no process is left behind.
        import multiprocessing

        service = DSEService(
            library=library, workers=2,
            retry=RetryPolicy(max_attempts=1, deadline_seconds=0.5))
        receipt = service.submit(
            JobSpec("sweep", sweep_payload(latencies=(28, 10), rows=2)))
        start = time.monotonic()
        assert service.run_pending() == 1
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 5.0
        status = service.status(receipt["job_id"])
        assert status["state"] == "timeout"
        assert status["failure"]["kind"] == "timeout"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_cut_off_job_keeps_the_points_it_finished(self, tmp_path,
                                                         library, workers):
        # rows=1 latency 6 takes about 0.05 s and latency 14 about 0.5 s
        # (and is visited second): the cutoff lands in latency 14 only.
        store = str(tmp_path / "store.jsonl")
        payload = sweep_payload(latencies=(6, 14))
        cut = DSEService(
            library=library, store_path=store, workers=workers,
            retry=RetryPolicy(max_attempts=1, deadline_seconds=0.25))
        receipt = cut.submit(JobSpec("sweep", payload))
        assert cut.run_pending() == 1
        assert cut.status(receipt["job_id"])["state"] == "timeout"

        again = DSEService(library=library, store_path=store,
                           workers=workers,
                           retry=RetryPolicy(max_attempts=1))
        receipt = again.submit(JobSpec("sweep", payload))
        assert again.run_pending() == 1
        result = again.result(receipt["job_id"])["result"]
        assert (result["cache_hits"], result["evaluations"]) == (1, 1)

    def test_run_pending_respects_max_jobs(self):
        service = _service()
        for _ in range(3):
            service.submit(JobSpec("sweep", sweep_payload()))
        assert service.run_pending(max_jobs=2) == 2
        assert service.queue.pending_count() == 1
        assert service.run_pending() == 1


class TestWorkerPool:
    def test_workers_drain_the_queue_concurrently(self):
        fake = FakeEvaluator()
        service = _service(evaluator=fake)
        receipts = [service.submit(JobSpec("sweep",
                                           sweep_payload(latencies=(lat,))))
                    for lat in (6, 8, 10, 12)]
        service.start_workers(2)
        try:
            for receipt in receipts:
                assert _wait_terminal(service,
                                      receipt["job_id"])["state"] == "done"
        finally:
            service.stop_workers()
        assert sorted(fake.calls) == sorted(
            f"idct_L{lat}_T1500" for lat in (6, 8, 10, 12))

    def test_stop_workers_clears_the_pool(self):
        service = _service()
        service.start_workers(2)
        assert service.stats()["workers"] == 2
        service.stop_workers()
        assert service.stats()["workers"] == 0


class TestServedEqualsDirectProperty:
    """The tentpole property: a served evaluation is byte-identical to a
    direct :func:`repro.flows.dse.evaluate_point` call — on the cold path
    (the service actually ran the flows) and on the memoized path (the
    result came back from the shared store)."""

    def test_submit_design_matches_direct_evaluation(self, tmp_path, library):
        from repro.flows.dse import evaluate_point
        from repro.verify.scenarios import ScenarioSpec

        payload = submit_design_payload(seed=11, max_segments=2)
        scenario = ScenarioSpec.from_dict(payload)
        direct = evaluate_point(
            scenario.factory(), library, scenario.point(name=scenario.name),
            margin_fraction=scenario.margin_fraction,
            scheduling="block").metrics()
        direct_bytes = json.dumps(direct, sort_keys=True)

        cold = DSEService(library=library,
                          store_path=str(tmp_path / "store.jsonl"))
        receipt = cold.submit(JobSpec("submit-design", payload))
        cold.run_pending()
        cold_result = cold.result(receipt["job_id"])["result"]
        assert cold_result["evaluations"] == 1
        assert json.dumps(cold_result["points"][0], sort_keys=True) \
            == direct_bytes

        warm = DSEService(library=library,
                          store_path=str(tmp_path / "store.jsonl"))
        again = warm.submit(JobSpec("submit-design", payload))
        assert again["fingerprint"] == receipt["fingerprint"]
        warm.run_pending()
        warm_result = warm.result(again["job_id"])["result"]
        assert warm_result["evaluations"] == 0
        assert warm_result["cache_hits"] == 1
        assert json.dumps(warm_result["points"][0], sort_keys=True) \
            == direct_bytes
