"""The service's job model: JSON-safe request specs and job records.

A :class:`JobSpec` is what a tenant submits: one of three kinds, each with
a JSON-safe payload —

* ``"submit-design"`` — a :class:`repro.verify.scenarios.ScenarioSpec`
  dict: evaluate one concrete design (structure + clock/II/margin knobs)
  through both flows;
* ``"sweep"`` — a :class:`SweepJob` dict: a workload crossed with
  latency/clock/II grids, evaluated point by point in the job's canonical
  :meth:`SweepJob.points` order;
* ``"explore"`` — an :class:`ExploreJob` dict: an adaptive Pareto
  exploration (:class:`repro.explore.adaptive.AdaptiveExplorer`).

Payloads are parsed once, at construction, by the payload class's
``from_dict`` (:meth:`JobSpec.parse_payload` returns the result), so a malformed
submission is rejected at the submit endpoint, not discovered by a worker.

A :class:`JobRecord` is the queue's unit of state: the spec plus the job's
lifecycle (``pending -> running -> done | failed | timeout``, with
``cancelled`` reachable from ``pending`` only), its JSON-safe result or
structured failure, and the attempt ledger the retry policy produced.  The
record round-trips through :meth:`to_dict`/:meth:`from_dict` because the
queue persists the submit, finish and cancel transitions as one JSONL line
each (a claim is not journaled: a reload requeues a running job anyway).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.flows.dse import DesignPoint

JOB_SCHEMA = 1

KIND_SUBMIT_DESIGN = "submit-design"
KIND_SWEEP = "sweep"
KIND_EXPLORE = "explore"
JOB_KINDS = (KIND_SUBMIT_DESIGN, KIND_SWEEP, KIND_EXPLORE)

#: Lifecycle states; the last four are terminal.
JOB_STATES = ("pending", "running", "done", "failed", "cancelled", "timeout")
TERMINAL_STATES = ("done", "failed", "cancelled", "timeout")


def _int_tuple(values: Sequence[object]) -> Tuple[int, ...]:
    return tuple(int(value) for value in values)


def _param_tuple(values: object) -> Tuple[Tuple[str, int], ...]:
    if isinstance(values, Mapping):
        items = sorted(values.items())
    else:
        items = [tuple(pair) for pair in values]  # type: ignore[union-attr]
    return tuple((str(name), int(value)) for name, value in items)


@dataclass(frozen=True)
class SweepJob:
    """One sweep grid: a workload crossed with latency/clock/II knobs.

    ``ii_values`` empty means block scheduling (one point per latency x
    clock); non-empty switches the job to the pipelined flows with one
    point per latency x clock x II.  ``params`` are extra workload-builder
    arguments (``(("taps", 8),)`` for an 8-tap FIR), kept as a tuple of
    pairs so the job hashes and pickles.
    """

    workload: str
    latencies: Tuple[int, ...]
    clocks: Tuple[float, ...] = (1500.0,)
    ii_values: Tuple[int, ...] = ()
    margin_fraction: float = 0.05
    params: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "latencies", _int_tuple(self.latencies))
        object.__setattr__(self, "clocks",
                           tuple(float(clock) for clock in self.clocks))
        object.__setattr__(self, "ii_values", _int_tuple(self.ii_values))
        object.__setattr__(self, "params", _param_tuple(self.params))
        if not self.latencies:
            raise ReproError(f"sweep job {self.workload!r}: empty latency grid")
        if not self.clocks:
            raise ReproError(f"sweep job {self.workload!r}: empty clock grid")
        if any(ii < 1 for ii in self.ii_values):
            raise ReproError(
                f"sweep job {self.workload!r}: initiation intervals must be >= 1")

    @property
    def scheduling(self) -> str:
        return "pipeline" if self.ii_values else "block"

    def factory(self):
        from repro.workloads.factories import resolve_factory

        return resolve_factory(self.workload, dict(self.params))

    def points(self) -> List[DesignPoint]:
        """The job's grid in canonical order.

        Sorted latencies, then clocks, then IIs — the order is part of the
        job's contract: a sweep job's result lists its points in this
        order, whatever order the payload gave its grids in.
        """
        points = []
        for latency in sorted(set(self.latencies)):
            for clock in sorted(set(self.clocks)):
                if self.ii_values:
                    for ii in sorted(set(self.ii_values)):
                        points.append(DesignPoint(
                            name=f"{self.workload}_L{latency}_T{clock:g}_ii{ii}",
                            latency=latency, pipeline_ii=ii,
                            clock_period=clock))
                else:
                    points.append(DesignPoint(
                        name=f"{self.workload}_L{latency}_T{clock:g}",
                        latency=latency, clock_period=clock))
        return points

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "latencies": list(self.latencies),
            "clocks": list(self.clocks),
            "ii_values": list(self.ii_values),
            "margin_fraction": self.margin_fraction,
            "params": {name: value for name, value in self.params},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepJob":
        return cls(
            workload=str(data["workload"]),
            latencies=_int_tuple(data["latencies"]),  # type: ignore[arg-type]
            clocks=tuple(float(c) for c in data.get("clocks", (1500.0,))),  # type: ignore[union-attr]
            ii_values=_int_tuple(data.get("ii_values", ())),  # type: ignore[arg-type]
            margin_fraction=float(data.get("margin_fraction", 0.05)),  # type: ignore[arg-type]
            params=_param_tuple(data.get("params", ())),
        )


@dataclass(frozen=True)
class ExploreJob:
    """One adaptive exploration of a workload's latency axis."""

    workload: str
    latencies: Tuple[int, ...]
    clock_period: float = 1500.0
    margin_fraction: float = 0.05
    objectives: Tuple[str, ...] = ("latency_steps", "area")
    coarse_points: int = 5
    params: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "latencies", _int_tuple(self.latencies))
        object.__setattr__(self, "objectives",
                           tuple(str(o) for o in self.objectives))
        object.__setattr__(self, "params", _param_tuple(self.params))
        if not self.latencies:
            raise ReproError(
                f"explore job {self.workload!r}: empty latency grid")

    def factory(self):
        from repro.workloads.factories import resolve_factory

        return resolve_factory(self.workload, dict(self.params))

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "latencies": list(self.latencies),
            "clock_period": self.clock_period,
            "margin_fraction": self.margin_fraction,
            "objectives": list(self.objectives),
            "coarse_points": self.coarse_points,
            "params": {name: value for name, value in self.params},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExploreJob":
        return cls(
            workload=str(data["workload"]),
            latencies=_int_tuple(data["latencies"]),  # type: ignore[arg-type]
            clock_period=float(data.get("clock_period", 1500.0)),  # type: ignore[arg-type]
            margin_fraction=float(data.get("margin_fraction", 0.05)),  # type: ignore[arg-type]
            objectives=tuple(str(o) for o in
                             data.get("objectives", ("latency_steps", "area"))),  # type: ignore[union-attr]
            coarse_points=int(data.get("coarse_points", 5)),  # type: ignore[arg-type]
            params=_param_tuple(data.get("params", ())),
        )


@dataclass(frozen=True)
class JobSpec:
    """One submitted request: kind + JSON-safe payload + tenant tag.

    ``tenant`` is a free-form namespace label: jobs and results are
    reported per tenant, but the memo tier is deliberately shared — two
    tenants evaluating the same design at the same knobs hit one store
    record (the whole point of a multi-tenant cache).
    """

    kind: str
    payload: Mapping[str, object] = field(default_factory=dict)
    tenant: str = "default"

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ReproError(f"unknown job kind {self.kind!r}; expected one "
                             f"of {list(JOB_KINDS)}")
        if not isinstance(self.payload, Mapping):
            raise ReproError(f"job payload must be a JSON object, got "
                             f"{type(self.payload).__name__}")
        # Freeze a plain-dict copy and validate it eagerly: reject at the
        # submit endpoint, not in a worker three retries later.  The copy
        # never changes, so parse and hash it once, outside the fields.
        object.__setattr__(self, "payload",
                           json.loads(json.dumps(dict(self.payload))))
        object.__setattr__(self, "_job", self._parse())
        object.__setattr__(self, "_fingerprint", self._hash())

    def parse_payload(self):
        """The payload as its owning layer's object, parsed (and so
        validated) when the spec was built.

        Returns a :class:`~repro.verify.scenarios.ScenarioSpec`,
        :class:`SweepJob` or :class:`ExploreJob` depending on :attr:`kind`;
        all three are frozen.
        """
        return self._job

    def _parse(self):
        from repro.verify.scenarios import ScenarioSpec

        try:
            if self.kind == KIND_SUBMIT_DESIGN:
                return ScenarioSpec.from_dict(dict(self.payload))
            job = (SweepJob if self.kind == KIND_SWEEP
                   else ExploreJob).from_dict(self.payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed {self.kind} payload: "
                             f"{type(exc).__name__}: {exc}") from exc
        return self._check_workload(job)

    @staticmethod
    def _check_workload(job):
        # SweepJob/ExploreJob only resolve their workload name when a
        # worker builds the factory; resolve it here so an unknown name is
        # rejected at submit time like every other payload defect.
        try:
            job.factory()
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
        return job

    def fingerprint(self) -> str:
        """A stable identity of the request (kind + canonical payload).

        Tenant-independent on purpose: it identifies the *work*, which is
        what the shared memo tier dedups; the job id identifies the
        submission.
        """
        return self._fingerprint

    def _hash(self) -> str:
        canonical = json.dumps({"kind": self.kind, "payload": self.payload},
                               sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": JOB_SCHEMA,
            "kind": self.kind,
            "payload": dict(self.payload),
            "tenant": self.tenant,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobSpec":
        if data.get("schema") not in (None, JOB_SCHEMA):
            raise ReproError(f"unknown job spec schema {data.get('schema')!r} "
                             f"(expected {JOB_SCHEMA})")
        payload = data.get("payload", {})
        if not isinstance(payload, Mapping):
            raise ReproError("job spec 'payload' must be a JSON object")
        return cls(kind=str(data.get("kind", "")),
                   payload=payload,
                   tenant=str(data.get("tenant", "default")))


@dataclass
class JobRecord:
    """One job's full queue state (JSON-safe, last-transition-wins)."""

    job_id: str
    spec: JobSpec
    state: str = "pending"
    #: Monotonic submission sequence number — the queue's FIFO order and
    #: the tie-breaker when a persisted queue is reloaded.
    seq: int = 0
    result: Optional[Dict[str, object]] = None
    failure: Optional[Dict[str, object]] = None
    attempts: List[Dict[str, object]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status(self) -> Dict[str, object]:
        """The status-endpoint view (everything except the result body)."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "kind": self.spec.kind,
            "tenant": self.spec.tenant,
            "fingerprint": self.spec.fingerprint(),
            "attempts": len(self.attempts),
            "failure": self.failure,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": JOB_SCHEMA,
            "job_id": self.job_id,
            "seq": self.seq,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "result": self.result,
            "failure": self.failure,
            "attempts": list(self.attempts),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobRecord":
        state = str(data.get("state", "pending"))
        if state not in JOB_STATES:
            raise ReproError(f"unknown job state {state!r}")
        spec = data.get("spec")
        if not isinstance(spec, Mapping):
            raise ReproError("job record 'spec' must be a JSON object")
        result = data.get("result")
        failure = data.get("failure")
        attempts = data.get("attempts", [])
        return cls(
            job_id=str(data["job_id"]),
            spec=JobSpec.from_dict(spec),
            state=state,
            seq=int(data.get("seq", 0)),  # type: ignore[arg-type]
            result=dict(result) if isinstance(result, Mapping) else None,
            failure=dict(failure) if isinstance(failure, Mapping) else None,
            attempts=[dict(a) for a in attempts
                      if isinstance(a, Mapping)],  # type: ignore[union-attr]
        )
