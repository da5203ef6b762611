"""A persistent FIFO job queue with last-transition-wins JSONL state.

The queue holds :class:`repro.serve.jobs.JobRecord` objects and hands them
to workers in submission order.  The transitions a reload can observe —
submit, finish, cancel — each append the job's *full* record as one line
through the advisory-locked append path of :mod:`repro.core.jsonl`, so the
file is both the queue's journal and its recovery image: reloading keeps
the last record per job id.  A claim is not journaled: a job that was
running when the process died must come back as ``pending`` anyway (its
worker is gone; the retry policy governs how often the work itself may be
retried, the queue only restores visibility), and its last journaled line
already says so.  The in-memory record still reads ``running``.

Thread-safety: one lock + condition guards the in-memory tables; workers
block in :meth:`claim` until a job or a timeout arrives.  Multi-process
safety of the *file* comes from the JSONL layer's locking; the in-memory
queue is per-process by design (one service process owns one queue file).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional

from repro.core.jsonl import append_record, load_records
from repro.errors import ReproError
from repro.serve.jobs import JOB_SCHEMA, JobRecord, JobSpec


class JobQueue:
    """FIFO queue of job records, optionally journaled to a JSONL file."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.skipped_lines = 0
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._records: Dict[str, JobRecord] = {}
        self._pending: Deque[str] = deque()
        self._seq = 0
        if path is not None:
            self._load(path)

    # -- persistence -------------------------------------------------------------

    @staticmethod
    def _accept(record: Dict[str, object]) -> bool:
        return (record.get("schema") == JOB_SCHEMA
                and isinstance(record.get("job_id"), str)
                and isinstance(record.get("spec"), dict))

    def _load(self, path: str) -> None:
        raw, self.skipped_lines = load_records(path, self._accept)
        for data in raw:
            try:
                record = JobRecord.from_dict(data)
            except (ReproError, KeyError, TypeError, ValueError):
                self.skipped_lines += 1
                continue
            self._records[record.job_id] = record
            self._seq = max(self._seq, record.seq)
        # Interrupted jobs (claimed but never finished) are pending in the
        # journal, which does not record claims; a ``running`` line written
        # by an older version is requeued too.  Submission order is restored
        # from the sequence numbers.
        recovered = []
        for record in self._records.values():
            if record.state == "running":
                record.state = "pending"
            if record.state == "pending":
                recovered.append(record)
        for record in sorted(recovered, key=lambda r: r.seq):
            self._pending.append(record.job_id)

    def _journal(self, record: JobRecord) -> None:
        if self.path is not None:
            append_record(self.path, record.to_dict())

    # -- queue operations --------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Enqueue one job; returns its pending record."""
        with self._available:
            self._seq += 1
            record = JobRecord(job_id=f"job-{self._seq:06d}", spec=spec,
                               seq=self._seq)
            self._records[record.job_id] = record
            self._pending.append(record.job_id)
            self._journal(record)
            self._available.notify()
        return record

    def claim(self, timeout: Optional[float] = 0.0) -> Optional[JobRecord]:
        """Pop the oldest pending job and mark it running (in memory only:
        a reload would requeue it, so the journal gets no line).

        ``timeout`` bounds the wait for a job to appear: ``0`` polls,
        ``None`` blocks until one arrives.  Returns ``None`` on timeout.
        """
        with self._available:
            while not self._pending:
                if timeout == 0.0:
                    return None
                if not self._available.wait(timeout):
                    return None
                timeout = 0.0  # one wakeup per claim; re-check then give up
            record = self._records[self._pending.popleft()]
            record.state = "running"
            return record

    def finish(self, job_id: str, state: str,
               result: Optional[Dict[str, object]] = None,
               failure: Optional[Dict[str, object]] = None,
               attempts: Optional[List[Mapping[str, object]]] = None,
               ) -> JobRecord:
        """Transition a running job to a terminal state and journal it."""
        if state not in ("done", "failed", "timeout"):
            raise ReproError(f"finish() cannot set state {state!r}")
        with self._lock:
            record = self._require(job_id)
            if record.state != "running":
                raise ReproError(f"job {job_id} is {record.state}, not running")
            record.state = state
            record.result = result
            record.failure = failure
            if attempts is not None:
                record.attempts = [dict(a) for a in attempts]
            self._journal(record)
            return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a pending job (running/terminal jobs cannot be)."""
        with self._lock:
            record = self._require(job_id)
            if record.state != "pending":
                raise ReproError(f"job {job_id} is {record.state}; only "
                                 "pending jobs can be cancelled")
            record.state = "cancelled"
            self._pending.remove(job_id)
            self._journal(record)
            return record

    # -- queries -----------------------------------------------------------------

    def _require(self, job_id: str) -> JobRecord:
        record = self._records.get(job_id)
        if record is None:
            raise ReproError(f"unknown job {job_id!r}")
        return record

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def jobs(self) -> List[JobRecord]:
        """Every known record, in submission order."""
        with self._lock:
            return sorted(self._records.values(), key=lambda r: r.seq)

    def counts(self) -> Dict[str, int]:
        """Job tally per state (states with zero jobs are omitted)."""
        with self._lock:
            tally: Dict[str, int] = {}
            for record in self._records.values():
                tally[record.state] = tally.get(record.state, 0) + 1
            return tally

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
