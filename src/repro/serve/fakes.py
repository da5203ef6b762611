"""Fakes replacing flows, clocks and sleeps in the serve test suite.

The serve layer's contract tests need three things the real stack makes
slow or nondeterministic: evaluations (two full HLS flows each), wall-clock
time (retry backoff, deadlines) and hangs (the timeout path).  Each gets a
small fake with the exact interface of the real collaborator:

* :class:`FakeEvaluator` — the service's ``evaluator`` injection point,
  returning canned-but-correctly-shaped metrics and logging every call (the
  warm-cache tests assert "zero new flow evaluations" on this log);
* :class:`FakeClock` — injectable ``clock``/``sleep`` pair for
  :func:`repro.serve.retry.run_with_retry`, advancing virtual time instead
  of sleeping and recording the exact backoff schedule;
* :class:`HangingEvaluator` — runs far longer than any test deadline,
  checking it between short sleeps as the flows do between passes.

These are *fakes*, not mocks: they implement behaviour (deterministic
metrics as a function of the point, consistent call logs), so tests read
as scenarios rather than expectation scripts.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.core.deadline import check_deadline
from repro.errors import ReproError


def canned_metrics(point, base_area: float = 1000.0) -> Dict[str, object]:
    """Deterministic, DSEEntry-shaped metrics for one design point.

    The shape mirrors :meth:`repro.flows.dse.DSEEntry.metrics` (point dict,
    one flow-metrics dict per flow, ``saving_percent``), and the values are
    a pure function of the point, so repeated fake evaluations memoize and
    compare exactly like real ones.  Areas scale inversely with latency —
    the paper's tradeoff direction — which keeps Pareto logic meaningful
    when explorations run against the fake.
    """
    area = base_area + 100.0 * (40 - point.latency)
    interval = point.pipeline_ii if point.pipeline_ii is not None \
        else point.latency
    flow = {
        "area": area,
        "power": area * 0.4,
        "throughput": 1.0 / (interval * point.clock_period),
        "latency_steps": point.latency,
        "meets_timing": True,
        "fu_instances": 4,
        "registers": 8,
    }
    conventional = dict(flow, area=area * 1.25, power=area * 0.5)
    return {
        "point": {
            "name": point.name,
            "latency": point.latency,
            "pipeline_ii": point.pipeline_ii,
            "clock_period": point.clock_period,
        },
        "conventional": conventional,
        "slack_based": flow,
        "saving_percent": 20.0,
    }


class FakeEvaluator:
    """Canned evaluator with a call log and optional injected failures.

    ``fail_times`` makes the first N calls raise (exercising the retry
    path); calls after that succeed.  The call log records point names in
    evaluation order — ``len(fake.calls)`` is the "flow evaluations
    actually performed" counter the memoization tests pin to zero on warm
    resubmits.
    """

    def __init__(self, fail_times: int = 0, base_area: float = 1000.0):
        self.fail_times = fail_times
        self.base_area = base_area
        self.calls: List[str] = []
        self.failures = 0

    def __call__(self, factory, library, point, margin_fraction: float,
                 scheduling: str) -> Dict[str, object]:
        self.calls.append(point.name)
        if self.failures < self.fail_times:
            self.failures += 1
            raise ReproError(
                f"injected failure {self.failures}/{self.fail_times} "
                f"evaluating {point.name}")
        return canned_metrics(point, base_area=self.base_area)


class HangingEvaluator:
    """An evaluator that runs for ``hang_seconds`` (the timeout scenario),
    sleeping in 10 ms slices with a deadline checkpoint between them."""

    def __init__(self, hang_seconds: float = 60.0):
        self.hang_seconds = hang_seconds
        self.calls: List[str] = []

    def __call__(self, factory, library, point, margin_fraction: float,
                 scheduling: str) -> Dict[str, object]:
        self.calls.append(point.name)
        end = time.monotonic() + self.hang_seconds
        while time.monotonic() < end:
            check_deadline()
            time.sleep(0.01)
        return canned_metrics(point)


class FakeClock:
    """A virtual monotonic clock with a sleep that advances it.

    Pass ``clock=fake, sleep=fake.sleep`` into
    :func:`repro.serve.retry.run_with_retry`: the policy's deadline math
    runs on virtual time and every backoff lands in :attr:`sleeps` instead
    of stalling the test.  ``tick`` advances the clock on every *read*,
    modelling work that takes time (set it to push a deadline over).
    """

    def __init__(self, start: float = 0.0, tick: float = 0.0):
        self.now = start
        self.tick = tick
        self.sleeps: List[float] = []

    def __call__(self) -> float:
        value = self.now
        self.now += self.tick
        return value

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds

    def advance(self, seconds: float) -> None:
        self.now += seconds


def submit_design_payload(seed: int = 7,
                          max_segments: int = 2) -> Dict[str, object]:
    """A small real scenario payload for ``submit-design`` jobs.

    Deterministic in ``seed`` (the scenario generator's contract), small
    enough for the real flows when a test wants end-to-end truth rather
    than a fake.
    """
    from repro.verify.scenarios import ScenarioProfile, generate_scenario

    profile = ScenarioProfile(max_segments=max_segments,
                              pipeline_probability=0.0)
    return generate_scenario(seed, profile=profile).to_dict()


def sweep_payload(latencies=(6, 8), workload: str = "idct",
                  rows: int = 1) -> Dict[str, object]:
    """A small sweep-job payload (two IDCT points by default)."""
    return {
        "workload": workload,
        "latencies": list(latencies),
        "clocks": [1500.0],
        "ii_values": [],
        "margin_fraction": 0.05,
        "params": {"rows": rows},
    }


def explore_payload(latencies=(6, 16), workload: str = "idct",
                    rows: int = 1, coarse_points: int = 3,
                    ) -> Dict[str, object]:
    """A small explore-job payload over a dense latency range."""
    low, high = latencies
    return {
        "workload": workload,
        "latencies": list(range(low, high + 1)),
        "clock_period": 1500.0,
        "margin_fraction": 0.05,
        "objectives": ["latency_steps", "area"],
        "coarse_points": coarse_points,
        "params": {"rows": rows},
    }
