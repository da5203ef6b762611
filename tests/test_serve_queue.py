"""Tests of the persistent job queue: FIFO order, journal, recovery."""

import pytest

from repro.core.jsonl import load_records
from repro.errors import ReproError
from repro.serve.fakes import sweep_payload
from repro.serve.jobs import JobSpec
from repro.serve.queue import JobQueue


def _spec(latencies=(6, 8), tenant="default"):
    return JobSpec("sweep", sweep_payload(latencies=latencies), tenant=tenant)


class TestLifecycle:
    def test_submit_claim_finish_happy_path(self):
        queue = JobQueue()
        record = queue.submit(_spec())
        assert record.state == "pending"
        assert record.job_id == "job-000001"

        claimed = queue.claim()
        assert claimed is record and claimed.state == "running"

        done = queue.finish(record.job_id, "done", result={"points": []})
        assert done.state == "done" and done.result == {"points": []}

    def test_claim_is_fifo(self):
        queue = JobQueue()
        ids = [queue.submit(_spec(latencies=(lat,))).job_id
               for lat in (6, 8, 10)]
        assert [queue.claim().job_id for _ in ids] == ids

    def test_claim_empty_polls_none(self):
        assert JobQueue().claim(timeout=0.0) is None
        assert JobQueue().claim(timeout=0.01) is None

    def test_finish_requires_running(self):
        queue = JobQueue()
        record = queue.submit(_spec())
        with pytest.raises(ReproError):
            queue.finish(record.job_id, "done")
        queue.claim()
        queue.finish(record.job_id, "done")
        with pytest.raises(ReproError):  # already terminal
            queue.finish(record.job_id, "failed")

    def test_finish_rejects_non_terminal_states(self):
        queue = JobQueue()
        record = queue.submit(_spec())
        queue.claim()
        with pytest.raises(ReproError):
            queue.finish(record.job_id, "pending")
        with pytest.raises(ReproError):
            queue.finish(record.job_id, "cancelled")

    def test_cancel_pending_only(self):
        queue = JobQueue()
        record = queue.submit(_spec())
        cancelled = queue.cancel(record.job_id)
        assert cancelled.state == "cancelled"
        assert queue.claim() is None  # cancelled job left the pending deque

        running = queue.submit(_spec(latencies=(10,)))
        queue.claim()
        with pytest.raises(ReproError):
            queue.cancel(running.job_id)

    def test_unknown_job_raises(self):
        queue = JobQueue()
        with pytest.raises(ReproError):
            queue.finish("job-999999", "done")
        with pytest.raises(ReproError):
            queue.cancel("job-999999")
        assert queue.get("job-999999") is None

    def test_counts_and_len(self):
        queue = JobQueue()
        a = queue.submit(_spec(latencies=(6,)))
        queue.submit(_spec(latencies=(8,)))
        queue.claim()
        queue.finish(a.job_id, "done")
        assert queue.counts() == {"done": 1, "pending": 1}
        assert len(queue) == 2
        assert queue.pending_count() == 1


class TestPersistence:
    def test_journal_holds_full_records_per_transition(self, tmp_path):
        path = str(tmp_path / "queue.jsonl")
        queue = JobQueue(path)
        record = queue.submit(_spec())
        queue.claim()
        queue.finish(record.job_id, "done", result={"points": []})

        lines, skipped = load_records(path, lambda r: True)
        assert skipped == 0
        # A claim is not journaled: a reload would requeue the job anyway.
        assert [line["state"] for line in lines] == ["pending", "done"]
        assert all(line["job_id"] == record.job_id for line in lines)

    def test_reload_keeps_last_record_per_job(self, tmp_path):
        path = str(tmp_path / "queue.jsonl")
        queue = JobQueue(path)
        done = queue.submit(_spec(latencies=(6,)))
        queue.claim()
        queue.finish(done.job_id, "done", result={"points": [1]})
        pending = queue.submit(_spec(latencies=(8,)))

        again = JobQueue(path)
        assert again.skipped_lines == 0
        assert len(again) == 2
        assert again.get(done.job_id).state == "done"
        assert again.get(done.job_id).result == {"points": [1]}
        assert again.claim().job_id == pending.job_id

    def test_running_jobs_recover_to_pending_in_seq_order(self, tmp_path):
        path = str(tmp_path / "queue.jsonl")
        queue = JobQueue(path)
        first = queue.submit(_spec(latencies=(6,)))
        second = queue.submit(_spec(latencies=(8,)))
        queue.claim()
        queue.claim()  # both running; the "process" now dies

        recovered = JobQueue(path)
        assert recovered.counts() == {"pending": 2}
        assert recovered.claim().job_id == first.job_id
        assert recovered.claim().job_id == second.job_id

    def test_seq_continues_after_reload(self, tmp_path):
        path = str(tmp_path / "queue.jsonl")
        queue = JobQueue(path)
        queue.submit(_spec(latencies=(6,)))
        again = JobQueue(path)
        newer = again.submit(_spec(latencies=(8,)))
        assert newer.job_id == "job-000002"

    def test_foreign_lines_are_counted_not_fatal(self, tmp_path):
        from repro.core.jsonl import append_record

        path = str(tmp_path / "queue.jsonl")
        queue = JobQueue(path)
        queue.submit(_spec())
        append_record(path, {"schema": 99, "not": "a job"})
        again = JobQueue(path)
        assert len(again) == 1
        assert again.skipped_lines == 1
