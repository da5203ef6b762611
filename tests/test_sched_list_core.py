"""Pins the observable behaviour of the list-scheduling pass.

``try_list_schedule`` is the ``Schedule_pass`` of the paper's Fig. 8 and
every scheduling engine places its operations through it.  These tests
record every :class:`SchedulingAttempt` it returns while both flows run on
a fixed set of designs: the placement order, edge, step, chaining offsets
and grade of every item of a successful pass, and every field of a failed
pass's diagnosis.  The record is compared against a digest, so any change
to placement or to a failure report shows up here, not only in the golden
Table-4 metrics.  A few direct asserts name one failure of each kind.
"""

import hashlib
import json

import pytest

from repro.core import slack_scheduler
from repro.core.opspan import OperationSpans, SpanInfo
from repro.errors import ReproError
from repro.flows import conventional_flow, idct_design_points, slack_based_flow
from repro.ir.operations import OpKind
from repro.sched import list_scheduler, modulo_scheduler, relaxation
from repro.sched.allocation import Allocation
from repro.verify.scenarios import scenario_stream
from repro.workloads import IDCTPointFactory

#: Modules that call the pass through their own imported name.
_SITES = (relaxation, slack_scheduler, modulo_scheduler)

_POINTS = {point.name: point for point in idct_design_points(clock_period=1500.0)}

#: sha256 of the JSON record of every pass run by :func:`_run_workloads`.
_DIGEST = "93c10d507cbfd37a634a5ba652217a055fa34b46568b0be7de845bf7bb9dd8c0"


def _record(attempt):
    if attempt.success:
        return ["ok", [[item.op, item.edge, item.step, item.start, item.finish,
                        item.variant.name if item.variant else None]
                       for item in attempt.schedule.items]]
    failure = attempt.failure
    return ["fail", failure.op, failure.edge, failure.reason,
            failure.class_key, failure.blocking_class_key, failure.detail]


@pytest.fixture
def recorded(monkeypatch):
    """Every attempt returned by the pass, recorded at each import site."""
    records = []
    original = list_scheduler.try_list_schedule

    def recording(*args, **kwargs):
        attempt = original(*args, **kwargs)
        records.append(_record(attempt))
        return attempt

    for site in _SITES:
        monkeypatch.setattr(site, "try_list_schedule", recording)
    return records


def _run_flows(records, label, design, library, **kwargs):
    for flow in (conventional_flow, slack_based_flow):
        records.append(["run", label, flow.__name__])
        try:
            flow(design, library, area_recovery=False, **kwargs)
        except ReproError as exc:
            records.append(["error", type(exc).__name__])


def _run_workloads(records, library):
    rows1 = IDCTPointFactory(rows=1)
    for name, point in _POINTS.items():
        for scheduling in ("block", "pipeline"):
            _run_flows(records, f"r1-{name}-{scheduling}", rows1(point),
                       library, scheduling=scheduling)
    _run_flows(records, "r2-D8", IDCTPointFactory(rows=2)(_POINTS["D8"]),
               library)
    for _, spec in scenario_stream(2024, 20):
        _run_flows(records, spec.name, spec.design(), library,
                   clock_period=spec.clock_period,
                   pipeline_ii=spec.pipeline_ii)


def test_every_pass_of_both_flows_matches_the_pinned_record(recorded, library):
    _run_workloads(recorded, library)
    passes = [entry for entry in recorded if entry[0] in ("ok", "fail")]
    assert any(entry[0] == "ok" for entry in passes)
    assert {entry[3] for entry in passes if entry[0] == "fail"} >= {
        "resource", "timing"}
    payload = json.dumps(recorded, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == _DIGEST


def _grades(design, library, which):
    pick = getattr(library, f"{which}_variant")
    return {op.name: (pick(op) if op.is_synthesizable else None)
            for op in design.dfg.operations if op.kind is not OpKind.CONST}


def test_resource_failure_names_the_full_class(interpolation, library):
    attempt = list_scheduler.try_list_schedule(
        interpolation, library, 1100.0, _grades(interpolation, library,
                                                "fastest"),
        Allocation({("mul", 8): 1, ("add", 16): 1}))
    assert not attempt.success
    failure = attempt.failure
    assert (failure.op, failure.edge, failure.reason) == (
        "mul_x_0", "e3", "resource")
    assert failure.class_key == ("mul", 8)
    assert failure.blocking_class_key is None
    assert failure.detail == "all 1 instance(s) of mul/8 are busy in step 2"


def test_timing_failure_names_its_chain_driver(interpolation, library):
    attempt = list_scheduler.try_list_schedule(
        interpolation, library, 700.0, _grades(interpolation, library,
                                               "fastest"),
        Allocation({("mul", 8): 3, ("add", 16): 1}))
    assert not attempt.success
    failure = attempt.failure
    assert (failure.op, failure.edge, failure.reason) == (
        "mul_x_3", "e3", "timing")
    assert failure.class_key == ("mul", 8)
    assert failure.blocking_class_key == ("mul", 8)
    assert failure.detail == ("chained start 430.0 ps + delay 430.0 ps "
                              "exceeds the 700.0 ps budget")


class _ClampedTo:
    """Spans with one operation's span cut down to a single edge."""

    def __init__(self, spans, op, edge):
        self._spans = spans
        self._clamped = SpanInfo(op=op, early=edge, late=edge, edges=(edge,))

    def span(self, name):
        if name == self._clamped.op:
            return self._clamped
        return self._spans.span(name)

    def __getattr__(self, name):
        return getattr(self._spans, name)


def test_unreachable_failure_when_a_predecessor_never_places(interpolation,
                                                             library):
    # No multiplier may run, so ``add_sum_0``'s producer ``mul_x_0`` stays
    # pending on e1 without being on its last chance; the add's span ends
    # on e1, so it can never become ready.
    spans = _ClampedTo(OperationSpans(interpolation), "add_sum_0", "e1")
    attempt = list_scheduler.try_list_schedule(
        interpolation, library, 1100.0, _grades(interpolation, library,
                                                "fastest"),
        Allocation({("mul", 8): 0, ("add", 16): 1}), spans=spans)
    assert not attempt.success
    failure = attempt.failure
    assert (failure.op, failure.edge, failure.reason) == (
        "add_sum_0", "e1", "unreachable")
    assert failure.class_key == ("add", 16)
    assert failure.blocking_class_key is None
    assert failure.detail == ("operation never became ready before the end "
                              "of its span (a predecessor could not be "
                              "scheduled)")
