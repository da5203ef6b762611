"""Pins the bookkeeping both flows record in ``FlowResult.details``.

``details`` never enters ``metrics()``, the golden Table-4 file or a
benchmark digest, so nothing else pins what the flows report about their
own run: the initial grades, the step-0 budget, per-edge re-budgets, the
relaxation moves, the achieved initiation interval, MII components and the
area-recovery tallies.  These tests run both flows over a fixed set of
points, in block and pipeline mode, and compare one sha256 over every
run's flow label, metrics and details (wall-clock fields excluded), or the
error class and message of a run that raises.

Each run is traced on its own :class:`repro.obs.trace.Tracer`.  A second
sha256 covers every run's ``sched.attempt`` span attributes, in order, and
its ``sched.rebudget`` span count, so the relaxation loop's observable
trail is pinned as well as its outcome.
"""

import hashlib
import json

import pytest

from repro.errors import ReproError
from repro.flows import conventional_flow, idct_design_points, slack_based_flow
from repro.obs.trace import tracing
from repro.workloads import IDCTPointFactory, fir_design, interpolation_design

#: sha256 of the JSON record of every run of :func:`_runs`.
_DIGEST = "bd2719b89f6c256bbd29c8526cc44a4bacfa72417acdb97b1dc66cbafe01ba20"

#: sha256 of every run's ``sched.attempt`` attributes and re-budget count.
_SPAN_DIGEST = "98bd6e1488c60b9c614c66a6e7683c93ea4c152a9c0b32d3986848e38d1cd1a7"

#: Wall-clock entries of ``details``; they differ from run to run.
_WALL_CLOCK = {"area_recovery_seconds"}


def _runs():
    """``(tag, flow, design, kwargs)`` for the 89 pinned flow runs."""
    interpolation = interpolation_design()
    runs = [
        ("interp-1100-conventional", conventional_flow, interpolation,
         {"clock_period": 1100.0}),
        ("interp-1100-slowest-first", conventional_flow, interpolation,
         {"clock_period": 1100.0, "initial_grades": "slowest"}),
        ("interp-1100-slack", slack_based_flow, interpolation,
         {"clock_period": 1100.0}),
    ]

    def both(tag, design, **kwargs):
        for flow in (conventional_flow, slack_based_flow):
            runs.append((f"{tag}-{flow.__name__}", flow, design, kwargs))

    for scheduling in ("block", "pipeline"):
        for clock_period in (1500.0, 1100.0, 800.0):
            for pipeline_ii in (None, 1):
                both(f"interp-{scheduling}-{clock_period:.0f}-ii{pipeline_ii}",
                     interpolation, clock_period=clock_period,
                     pipeline_ii=pipeline_ii, scheduling=scheduling)
    rows1 = IDCTPointFactory(rows=1)
    for point in idct_design_points(clock_period=1500.0):
        design = rows1(point)
        for scheduling in ("block", "pipeline"):
            both(f"idct-r1-{point.name}-{scheduling}", design,
                 scheduling=scheduling)
    both("fir12-pipeline", fir_design(taps=12, latency=8, clock_period=1500.0),
         clock_period=1500.0, scheduling="pipeline")
    return runs


def _spans_named(tracer, name):
    return [span for root in tracer.roots for span in root.walk()
            if span.name == name]


@pytest.fixture(scope="module")
def traced_runs(library):
    """Per run: the flow's label, metrics and details (or its error), and
    its ``sched.attempt`` attributes plus ``sched.rebudget`` count."""
    records, span_records = [], []
    for tag, flow, design, kwargs in _runs():
        with tracing() as tracer:
            try:
                result = flow(design, library, **kwargs)
            except ReproError as exc:
                result = None
                records.append([tag, "error", type(exc).__name__, str(exc)])
        span_records.append([
            tag,
            [sorted(span.attrs.items())
             for span in _spans_named(tracer, "sched.attempt")],
            len(_spans_named(tracer, "sched.rebudget")),
        ])
        if result is None:
            continue
        details = {key: value for key, value in result.details.items()
                   if key not in _WALL_CLOCK}
        records.append([tag, result.flow, result.metrics(),
                        sorted(details.items())])
    return records, span_records


@pytest.fixture(scope="module")
def records(traced_runs):
    return traced_runs[0]


@pytest.fixture(scope="module")
def span_records(traced_runs):
    return traced_runs[1]


def test_the_pinned_runs_reach_every_relaxation_outcome(records):
    assert len(records) == 89
    details = [dict(record[3]) for record in records if record[1] != "error"]
    errors = [record[3] for record in records if record[1] == "error"]
    assert sum(1 for entry in details if entry["grade_upgrades"]) == 3
    assert sum(1 for entry in details if entry.get("ii_bumps")) == 6
    assert sum("is overconstrained with mul/8 at its bound of 7 instances"
               in message for message in errors) == 4
    assert any("stalls on a repeated timing failure" in message
               for message in errors)


def test_flow_details_match_the_pinned_digest(records):
    payload = json.dumps(records, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == _DIGEST


def test_the_traced_runs_cover_every_attempt_and_rebudget(span_records):
    assert len(span_records) == 89
    assert sum(len(record[1]) for record in span_records) == 183
    assert sum(record[2] for record in span_records) == 535


def test_attempt_spans_match_the_pinned_digest(span_records):
    payload = json.dumps(span_records, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == _SPAN_DIGEST
