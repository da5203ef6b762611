"""The list scheduler keeps its pass state on op indices.

:func:`repro.sched.list_scheduler.try_list_schedule` reads its spans as an
eligible-edge mask and a late-edge position per op index: from ``spans``
once per call, and from the slack hook's updates after that.  It writes
its grades back into the variant map once, when it returns.  These tests
check

* the write-back rule after every pass of both flows on the light Table-4
  points and 20 fuzz scenarios: a placed operation's entry is its
  ``ScheduledOp.variant``, and an unplaced one's is the last re-budget's
  grade (the pass-start grade when no re-budget came) or, for the
  operation a pass failed on, its on-the-fly upgrade;
* that a modulo pass whose ``_ClampedSpans`` view is clamped between
  rounds schedules each round from the clamped spans: rerunning every
  round from a static copy of the spans it saw gives the same attempt.
"""

import dataclasses

from repro.core import slack_scheduler
from repro.core.analysis_cache import default_cache
from repro.errors import ReproError
from repro.flows import (conventional_flow, evaluate_point, idct_design_points,
                          slack_based_flow)
from repro.sched import list_scheduler, modulo_scheduler, relaxation
from repro.sched.schedule import Schedule
from repro.verify.scenarios import scenario_stream
from repro.workloads import IDCTPointFactory

_POINTS = {point.name: point for point in idct_design_points(clock_period=1500.0)}

#: The Table-4 points of ``perfbench``'s ``table4-rows2-light`` workload.
_LIGHT = sorted(set(_POINTS) - {"D2", "D7"}, key=lambda name: int(name[1:]))


class _WriteBackChecker:
    """Checks the variant map after every pass of both flows' list
    scheduler while installed; counts the passes, the placed and the
    unplaced operations it checked, and the upgrades it saw."""

    def __init__(self, monkeypatch):
        self.passes = self.placed = self.unplaced = self.upgrades = 0
        made = []
        original = list_scheduler.try_list_schedule

        class _Kept(Schedule):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        def checking(design, library, clock_period, variant_map, allocation,
                     **kwargs):
            grades = [dict(variant_map)]
            hook = kwargs.get("post_edge_hook")
            if hook is not None:
                def recording(edge_name, schedule, step):
                    update = hook(edge_name, schedule, step)
                    if update is not None:
                        grades.append(list(update[1]))
                    return update
                kwargs["post_edge_hook"] = recording
            attempt = original(design, library, clock_period, variant_map,
                               allocation, **kwargs)
            self._check(design, library, variant_map, made[-1], grades,
                        attempt)
            return attempt

        monkeypatch.setattr(list_scheduler, "Schedule", _Kept)
        monkeypatch.setattr(slack_scheduler, "try_list_schedule", checking)
        monkeypatch.setattr(relaxation, "try_list_schedule", checking)

    def _check(self, design, library, variant_map, schedule, grades, attempt):
        self.passes += 1
        table = default_cache().budget_template(design, library)
        last = grades[-1]
        for index, name in enumerate(table.names):
            item = schedule.get(name)
            found = variant_map.get(name)
            if item is not None:
                assert found is item.variant, (design.name, name)
                self.placed += 1
                continue
            self.unplaced += 1
            expected = (last.get(name) if isinstance(last, dict)
                        else last[index])
            if found is expected:
                continue
            # Only the operation a pass failed on can leave it unplaced
            # after an on-the-fly upgrade: a faster grade of its class.
            assert not attempt.success and attempt.failure.op == name, \
                (design.name, name)
            assert found in table.classes[index].variants
            assert found.delay < expected.delay
            self.upgrades += 1


def test_variant_maps_hold_placed_and_rebudgeted_grades(library, monkeypatch):
    checker = _WriteBackChecker(monkeypatch)
    designs = [(IDCTPointFactory(rows=2)(_POINTS[name]), 1500.0)
               for name in _LIGHT]
    designs += [(spec.design(), spec.clock_period)
                for _, spec in scenario_stream(2024, 20)
                if spec.pipeline_ii is None]
    for design, clock_period in designs:
        for flow in (conventional_flow, slack_based_flow):
            try:
                flow(design, library, clock_period=clock_period)
            except ReproError:
                pass
    assert checker.passes > 100
    assert checker.placed > 0 and checker.unplaced > 0
    assert checker.upgrades > 0


class _StaticSpans:
    """A frozen copy of the spans a pass saw: ``span(name)`` only."""

    def __init__(self, spans):
        self._spans = spans

    def span(self, name):
        return self._spans[name]


def _outcome(attempt):
    if attempt.success:
        return ("ok", attempt.schedule.as_sched_map(),
                [item.variant for item in attempt.schedule.items])
    failure = attempt.failure
    return ("fail", failure.op, failure.edge, failure.reason, failure.detail)


def test_a_clamped_modulo_pass_schedules_from_the_clamped_spans(library,
                                                                monkeypatch):
    """``scenario_s125`` at 2,000 ps (a ``serve-memo`` design) is the one
    pipelined design of its population whose modulo pass clamps a span."""
    spec = next(spec for _, spec in scenario_stream(0)
                if spec.name == "scenario_s125")
    spec = dataclasses.replace(spec, clock_period=2000.0)
    calls = []
    original = modulo_scheduler.try_list_schedule

    def recording(design, library, clock_period, variant_map, allocation,
                  spans=None, **kwargs):
        names = default_cache().budget_template(design, library).names
        seen = {name: spans.span(name) for name in names}
        unclamped = {name: spans._spans.span(name) for name in names}
        grades = dict(variant_map)
        limits = allocation.copy()
        attempt = original(design, library, clock_period, variant_map,
                           allocation, spans=spans, **kwargs)
        calls.append((design, clock_period, grades, limits, kwargs, seen,
                      seen != unclamped, _outcome(attempt)))
        return attempt

    monkeypatch.setattr(modulo_scheduler, "try_list_schedule", recording)
    evaluate_point(spec.factory(), library, spec.point(),
                   scheduling="pipeline")
    clamped = 0
    for (design, clock_period, grades, limits, kwargs, seen, was_clamped,
         outcome) in calls:
        again = original(design, library, clock_period, grades, limits,
                         spans=_StaticSpans(seen), **kwargs)
        assert _outcome(again) == outcome
        clamped += was_clamped
    assert clamped >= 1
