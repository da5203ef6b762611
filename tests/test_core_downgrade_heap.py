"""Budgeting's step 4 as one heap pass equals the full rescan.

:func:`repro.core.budgeting._downgrade` keeps the step-4 candidates of
Fig. 7 in a heap and, after each accepted downgrade, re-keys exactly the
operations the trial changed (the evaluator's ``commit`` returns them).
:func:`repro.core.budgeting._downgrade_reference`, the full rescan, is kept
as its specification.  A spy on ``_downgrade`` runs the reference on a twin
of every budget state it is handed (the same grades, delays, pinned flags
and slack vectors) and checks that both accept the same operations in the
same order after the same number of trials, and leave the same grades,
delays, frozen operations and slack vectors.  The budgets are those of the
light Table-4 points (step 0 and every per-edge re-budget), 40 fuzz
scenarios, and the cyclic budgets of pipelined flows.
"""

import copy

from repro.core import budgeting
from repro.core.delta_slack import CyclicSlackEvaluator
from repro.errors import ReproError
from repro.flows import idct_design_points, slack_based_flow
from repro.verify.scenarios import scenario_stream
from repro.workloads import IDCTPointFactory, interpolation_design

_POINTS = {point.name: point for point in idct_design_points(clock_period=1500.0)}

#: The Table-4 points of ``perfbench``'s ``table4-rows2-light`` workload.
_LIGHT = sorted(set(_POINTS) - {"D2", "D7"}, key=lambda name: int(name[1:]))


def _twin(state):
    """A copy of ``state`` whose lists and evaluator vectors are its own."""
    twin = copy.copy(state)
    twin.variants = list(state.variants)
    twin.delays = list(state.delays)
    twin.pinned = list(state.pinned)
    twin.frozen = set(state.frozen)
    evaluator = twin.evaluator = copy.copy(state.evaluator)
    for field in ("delays", "arrival", "required", "effective"):
        if hasattr(evaluator, field):
            setattr(evaluator, field, list(getattr(state.evaluator, field)))
    return twin


class _HeapChecker:
    """Checks every step-4 pass against the rescan while installed."""

    def __init__(self, monkeypatch):
        self.passes = self.cyclic = self.trials = self.accepted = 0
        self.rejected = 0
        heap = budgeting._downgrade

        def checking(state, margin):
            twin = _twin(state)
            expected = budgeting._downgrade_reference(twin, margin)
            found = heap(state, margin)
            assert found == expected
            assert len(state.variants) == len(twin.variants)
            assert all(mine is theirs for mine, theirs
                       in zip(state.variants, twin.variants))
            assert state.delays == twin.delays
            assert state.frozen == twin.frozen
            assert state.evaluator.arrival == twin.evaluator.arrival
            assert state.evaluator.required == twin.evaluator.required
            self.passes += 1
            self.cyclic += isinstance(state.evaluator, CyclicSlackEvaluator)
            self.trials += found[0]
            self.accepted += len(found[1])
            self.rejected += len(state.frozen)
            return found

        monkeypatch.setattr(budgeting, "_downgrade", checking)


def test_light_points_downgrade_as_the_rescan(library, monkeypatch):
    checker = _HeapChecker(monkeypatch)
    for name in _LIGHT:
        slack_based_flow(IDCTPointFactory(rows=2)(_POINTS[name]), library)
    assert checker.passes > 400
    assert checker.accepted > 0


def test_scenarios_downgrade_as_the_rescan(library, monkeypatch):
    checker = _HeapChecker(monkeypatch)
    scenarios = [spec for _, spec in scenario_stream(7, 60)
                 if spec.pipeline_ii is None][:40]
    assert len(scenarios) == 40
    for spec in scenarios:
        try:
            slack_based_flow(spec.design(), library,
                             clock_period=spec.clock_period)
        except ReproError:
            pass
    assert checker.passes > 40
    assert checker.accepted > 0 and checker.rejected > 0


def test_cyclic_budgets_downgrade_as_the_rescan(library, monkeypatch):
    checker = _HeapChecker(monkeypatch)
    slack_based_flow(interpolation_design(), library, scheduling="pipeline")
    for _, spec in scenario_stream(0, 200):
        if spec.pipeline_ii is not None:
            try:
                slack_based_flow(spec.design(), library,
                                 clock_period=spec.clock_period,
                                 pipeline_ii=spec.pipeline_ii,
                                 scheduling="pipeline")
            except ReproError:
                pass
    assert checker.cyclic > 0
    assert checker.accepted > 0 and checker.rejected > 0
