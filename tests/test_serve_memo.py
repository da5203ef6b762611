"""Every serve job kind resolves its points through the shared memo tier.

Sweeps, submitted designs and explorations all go through
:func:`repro.explore.store.memoized_run` over the service's
:class:`~repro.serve.cache.MemoCache`, so their lookups and writes show in
``stats()["cache"]``, their writes trigger compaction, and one failing
point never stops the others from being evaluated and stored.
"""

from repro.explore.store import ResultStore, StoreKey
from repro.serve.fakes import FakeEvaluator, explore_payload, sweep_payload
from repro.serve.jobs import JobSpec
from repro.serve.retry import RetryPolicy
from repro.serve.service import DSEService


def _service(tmp_path, **kwargs):
    kwargs.setdefault("store_path", str(tmp_path / "store.jsonl"))
    kwargs.setdefault("evaluator", FakeEvaluator())
    return DSEService(library=object(), **kwargs)


def _run(service, kind, payload):
    receipt = service.submit(JobSpec(kind, payload))
    service.run_pending()
    return service.status(receipt["job_id"]), service.queue.get(
        receipt["job_id"]).result


def test_explore_jobs_count_in_the_memo_tier(tmp_path):
    fake = FakeEvaluator()
    cold = _service(tmp_path, evaluator=fake)
    status, result = _run(cold, "explore", explore_payload(latencies=(6, 10)))
    assert status["state"] == "done"
    evaluations = result["evaluations"]
    assert evaluations == len(fake.calls) > 0
    assert cold.stats()["cache"]["misses"] == evaluations
    assert cold.stats()["cache"]["puts"] == evaluations

    warm = _service(tmp_path, evaluator=FakeEvaluator())
    _, again = _run(warm, "explore", explore_payload(latencies=(6, 10)))
    stats = warm.stats()["cache"]
    assert again["evaluations"] == 0
    assert (stats["hits"], stats["misses"], stats["puts"]) \
        == (again["cache_hits"], 0, 0)
    assert again["cache_hits"] == evaluations


def test_explore_writes_compact_past_the_threshold(tmp_path):
    path = str(tmp_path / "store.jsonl")
    stale = StoreKey(fingerprint="stale", clock_period=1500.0,
                     pipeline_ii=None, margin_fraction=0.05)
    backlog = ResultStore(path)
    for area in (1.0, 2.0):
        backlog.record(stale, {"area": area})
    service = _service(tmp_path, compact_after=1)
    assert service.stats()["cache"]["stale_lines"] == 1

    status, _ = _run(service, "explore", explore_payload(latencies=(6, 10)))
    stats = service.stats()["cache"]
    assert status["state"] == "done"
    assert (stats["compactions"], stats["stale_lines"]) == (1, 0)
    assert ResultStore(path).lookup(stale) == {"area": 2.0}


def test_injected_evaluator_failure_stays_in_its_point(tmp_path):
    fake = FakeEvaluator(fail_times=1)
    service = _service(tmp_path, evaluator=fake,
                       retry=RetryPolicy(max_attempts=1))
    status, _ = _run(service, "sweep", sweep_payload(latencies=(6, 8)))
    assert status["state"] == "failed"
    assert "idct_L6_T1500" in status["failure"]["error"]
    assert fake.calls == ["idct_L6_T1500", "idct_L8_T1500"]
    stored = ResultStore(str(tmp_path / "store.jsonl")).records()
    assert [record["point"]["name"] for record in stored] == ["idct_L8_T1500"]
