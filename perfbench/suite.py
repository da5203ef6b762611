"""The benchmark's workloads: how each builds its inputs, runs and is checked.

Each workload has a ``setup(seed, workdir)`` that builds the library and the
inputs and returns a ``run(tracer)`` callable.  ``run`` times each of the
workload's units (sweep points or serve jobs) and returns an
:class:`Outcome`; its correctness checks run after the timed part.

Every unit is a *job*.  *Warm* jobs are the units that can reuse earlier
work: in a sweep, the points whose design structure the session has already
evaluated; in serve, tenant B's resubmissions, which are memo hits.

Every workload is closed-loop with one client: the next unit starts only
when the previous one has finished, in this one process, with no threads.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.flows import DesignPoint, SweepSession, evaluate_point, idct_design_points
from repro.flows.sweep import sweep_plan
from repro.lib.tsmc90 import tsmc90_library
from repro.serve import DSEService, RetryPolicy
from repro.verify.scenarios import scenario_stream
from repro.workloads import IDCTPointFactory

#: The paper's Table-4 clock period (ps).
CLOCK = 1500.0

#: The two Table-4 points that take about three quarters of a rows=2 sweep.
#: No later point reuses their design structure, so a sweep without them
#: evaluates every other point exactly as the full sweep does.
HEAVY_POINTS = ("D2", "D7")

#: Designs per serve pass: p90 then has 20 samples beyond it.
SERVE_DESIGNS = 200

#: The serve designs are a fixed draw from the scenario generator; the
#: benchmark seed only orders their submission.  Seeded draws of 200 designs
#: differ in total cost by more than the benchmark's bounds.
SERVE_POPULATION_SEED = 0

#: Tenants that resubmit every design after tenant A: each of their jobs is
#: a memo hit.  A warm job's latency is the fastest of its resubmissions.
WARM_TENANTS = ("B", "C", "D")

#: Serve designs are clocked no faster than this, and drawn without the
#: 32-bit "wide" width profile: with 24- and 32-bit multipliers at faster
#: clocks some designs fail to schedule, and no workload may fail.
SERVE_MIN_CLOCK = 2000.0


@dataclasses.dataclass
class Outcome:
    """What one run of a workload did; the worker turns it into JSON."""

    wall_s: float
    cold_ms: List[float]
    warm_ms: List[float]
    #: Per-point evaluation time.  For a sweep this is the job latency
    #: itself; for serve it is the time inside the evaluator.
    point_ms: List[float]
    #: Every unit's latency, in run order: each unit once.
    unit_ms: List[float]
    attempted: int
    failures: List[Dict[str, str]]
    problems: List[str]
    #: Canonical per-unit results, the source of the run's digest.
    results: List[object]
    savings: List[float]
    repeat_structure_ratio: float = 0.0


def _failure(unit: str, exc: BaseException) -> Dict[str, str]:
    return {"unit": unit, "error": type(exc).__name__, "message": str(exc)}


def check_entry(unit: str, entry) -> List[str]:
    """Both flows of a completed point meet timing and validate."""
    problems = []
    for flow in (entry.conventional, entry.slack_based):
        if not flow.meets_timing:
            problems.append(f"{unit}: {flow.flow} flow misses timing")
        for violation in flow.schedule.validate():
            problems.append(f"{unit}: {flow.flow} schedule: {violation}")
    return problems


# -- sweeps --------------------------------------------------------------------


def sweep_workload(rows: int, points: Callable[[], List[DesignPoint]],
                   scheduling: str = "block",
                   golden: Optional[str] = None):
    """A Table-4 style sweep through one :class:`SweepSession`.

    Points are visited in :func:`sweep_plan` order, as
    :meth:`SweepSession.run` does, but evaluated one at a time so that a
    failing point is recorded and the sweep goes on.  ``golden`` names a
    file, relative to the checkout root, that the per-point metrics must
    equal byte for byte (for a subset of its points: the canonical dump of
    the golden entries of those points).
    """

    def setup(seed: int, workdir: str):
        library = tsmc90_library()
        design_points = points()
        session = SweepSession(IDCTPointFactory(rows=rows), library,
                               scheduling=scheduling)
        order = sweep_plan(design_points)
        golden_bytes = None
        if golden is not None:
            root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            with open(os.path.join(root, golden), "r", encoding="utf-8") as handle:
                golden_bytes = handle.read()
            names = {point.name for point in design_points}
            expected = [entry for entry in json.loads(golden_bytes)
                        if entry["point"]["name"] in names]
            golden_bytes = json.dumps(expected, indent=1, sort_keys=True)

        def run(tracer) -> Outcome:
            return _run_sweep(session, design_points, order, golden_bytes,
                              tracer)

        return run

    return setup


def _run_sweep(session: SweepSession, points: Sequence[DesignPoint],
               order: Sequence[int], golden_bytes: Optional[str],
               tracer) -> Outcome:
    clock = time.perf_counter
    entries = {}
    failures: List[Dict[str, str]] = []
    cold_ms: List[float] = []
    warm_ms: List[float] = []
    start = clock()
    for index in order:
        point = points[index]
        if tracer is not None:
            tracer.unit = point.name
        repeats = session.stats.delta_points
        begin = clock()
        try:
            entries[point.name] = session.evaluate(point)
        except Exception as exc:  # one failing point must not end the sweep
            failures.append(_failure(point.name, exc))
        elapsed = (clock() - begin) * 1000.0
        cold_ms.append(elapsed)
        # A point whose design structure the session has evaluated before
        # reuses its interned design, artifacts and delta caches.
        if point.name in entries and session.stats.delta_points > repeats:
            warm_ms.append(elapsed)
    wall_s = clock() - start
    if tracer is not None:
        tracer.unit = None

    problems: List[str] = []
    for name, entry in entries.items():
        problems.extend(check_entry(name, entry))
    metrics = json.loads(json.dumps(
        [entries[p.name].metrics() for p in points if p.name in entries]))
    if golden_bytes is not None and \
            json.dumps(metrics, indent=1, sort_keys=True) != golden_bytes:
        problems.append("per-point metrics differ from the golden file")
    stats = session.stats
    return Outcome(
        wall_s=wall_s, cold_ms=cold_ms, warm_ms=warm_ms, point_ms=cold_ms,
        unit_ms=cold_ms, attempted=len(points), failures=failures,
        problems=problems, results=[metrics, failures],
        savings=[entry.saving_percent for entry in entries.values()],
        repeat_structure_ratio=stats.delta_points / stats.points_evaluated
        if stats.points_evaluated else 0.0,
    )


def pipeline_grid() -> List[DesignPoint]:
    """Latency 8, 12 and 16, each at every II from 1 to latency - 1."""
    return [DesignPoint(name=f"L{latency}_II{ii}", latency=latency,
                        pipeline_ii=ii, clock_period=CLOCK)
            for latency in (8, 12, 16) for ii in range(1, latency)]


def table4_points() -> List[DesignPoint]:
    return idct_design_points(clock_period=CLOCK)


def table4_light_points() -> List[DesignPoint]:
    """The Table-4 points other than :data:`HEAVY_POINTS`."""
    return [point for point in table4_points()
            if point.name not in HEAVY_POINTS]


# -- serve ---------------------------------------------------------------------


def serve_designs(count: int = SERVE_DESIGNS):
    """The first ``count`` distinct usable designs of the scenario stream."""
    specs = []
    seen = set()
    for _, spec in scenario_stream(SERVE_POPULATION_SEED):
        if spec.profile == "wide":
            continue
        if spec.clock_period < SERVE_MIN_CLOCK:
            spec = dataclasses.replace(spec, clock_period=SERVE_MIN_CLOCK)
        if spec.fingerprint() in seen:
            continue
        seen.add(spec.fingerprint())
        specs.append(spec)
        if len(specs) == count:
            return specs
    return specs


def serve_workload(count: int = SERVE_DESIGNS):
    """Tenant A submits ``count`` designs (cold), then each of
    :data:`WARM_TENANTS` resubmits them (warm: memo hits), through a
    persistent :class:`DSEService`, in an order drawn from the seed."""

    def setup(seed: int, workdir: str):
        library = tsmc90_library()
        payloads = [spec.to_dict() for spec in serve_designs(count)]
        random.Random(seed).shuffle(payloads)
        evaluated = []
        point_ms: List[float] = []

        # The service's default evaluator plus two records the checks need:
        # the flow results (to validate schedules) and the evaluation time.
        def evaluator(factory, lib, point, margin_fraction, scheduling):
            begin = time.perf_counter()
            entry = evaluate_point(factory, lib, point,
                                   margin_fraction=margin_fraction,
                                   scheduling=scheduling)
            point_ms.append((time.perf_counter() - begin) * 1000.0)
            evaluated.append(entry)
            return entry.metrics()

        service = DSEService(
            library=library,
            store_path=os.path.join(workdir, "store.jsonl"),
            queue_path=os.path.join(workdir, "queue.jsonl"),
            retry=RetryPolicy(max_attempts=1),
            evaluator=evaluator,
        )

        def run(tracer) -> Outcome:
            return _run_serve(service, payloads, evaluated, point_ms, tracer)

        return run

    return setup


def _run_serve(service: DSEService, payloads: List[Dict[str, object]],
               evaluated: list, point_ms: List[float], tracer) -> Outcome:
    clock = time.perf_counter
    tenants = ("A",) + WARM_TENANTS
    passes: Dict[str, List[str]] = {tenant: [] for tenant in tenants}
    latencies: Dict[str, List[float]] = {tenant: [] for tenant in tenants}
    start = clock()
    for tenant in tenants:
        for index, payload in enumerate(payloads):
            if tracer is not None:
                tracer.unit = f"{tenant}:{index}"
            begin = clock()
            job = service.submit({"kind": "submit-design", "payload": payload,
                                  "tenant": tenant})
            service.run_pending(max_jobs=1)
            latencies[tenant].append((clock() - begin) * 1000.0)
            passes[tenant].append(job["job_id"])
    wall_s = clock() - start
    if tracer is not None:
        tracer.unit = None

    failures: List[Dict[str, str]] = []
    problems: List[str] = []
    results: Dict[str, List[object]] = {tenant: [] for tenant in tenants}
    for tenant, job_ids in passes.items():
        for job_id in job_ids:
            status = service.status(job_id)
            if status["state"] != "done":
                error = (status.get("failure") or {}).get("error") or ""
                failures.append({"unit": f"{tenant}:{job_id}",
                                 "error": status["state"],
                                 "message": str(error)})
                results[tenant].append(None)
                continue
            body = service.result(job_id)["result"]
            expected = (1, 0) if tenant == "A" else (0, 1)
            if (body["evaluations"], body["cache_hits"]) != expected:
                problems.append(
                    f"{tenant}:{job_id}: {body['evaluations']} evaluation(s), "
                    f"{body['cache_hits']} hit(s); expected {expected}")
            results[tenant].append(body["points"][0])
    for tenant in WARM_TENANTS:
        if results[tenant] != results["A"]:
            problems.append(f"{tenant}: warm results differ from cold results")
    for index, metrics in enumerate(results["A"]):
        if metrics is None:
            continue
        for flow in ("conventional", "slack_based"):
            if not metrics[flow]["meets_timing"]:
                problems.append(f"A:{index}: {flow} flow misses timing")
    for entry in evaluated:
        problems.extend(check_entry(entry.point.name, entry))
    savings = [metrics["saving_percent"] for metrics in results["A"]
               if metrics is not None]
    warm_ms = [min(samples) for samples in
               zip(*(latencies[tenant] for tenant in WARM_TENANTS))]
    return Outcome(
        wall_s=wall_s, cold_ms=latencies["A"], warm_ms=warm_ms,
        point_ms=list(point_ms), unit_ms=latencies["A"] + warm_ms,
        attempted=len(tenants) * len(payloads),
        failures=failures, problems=problems,
        results=[results["A"], failures], savings=savings,
    )


#: The workloads of ``BENCHMARK.json``, plus two run by hand: the full
#: ``table4-rows2`` sweep, whose two heavy points leave room for too few
#: repetitions in a run for a steady figure, and ``table4-rows8``, the 15
#: points at the paper's scale, where four points fail and the sweep takes
#: about a minute.
GOLDEN = os.path.join("benchmarks", "golden_table4_metrics.json")
WORKLOADS = {
    "table4-rows2-light": sweep_workload(2, table4_light_points,
                                         golden=GOLDEN),
    "pipeline-ii": sweep_workload(8, pipeline_grid, scheduling="pipeline"),
    "serve-memo": serve_workload(),
    "table4-rows2": sweep_workload(2, table4_points, golden=GOLDEN),
    "table4-rows8": sweep_workload(8, table4_points),
}
