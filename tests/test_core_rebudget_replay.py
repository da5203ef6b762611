"""A schedule pass replays the previous pass's re-budget when its input repeats.

When a schedule pass fails, the relaxation loop makes one move and reruns
the pass.  Each pass keeps its per-edge re-budgets
(:class:`repro.core.slack_scheduler._PassState`), and the next pass reuses
one whose input (next edge, pinned edges, grades and pinned flags) equals
its own on the same edge instead of recomputing it.

Inside real multi-pass runs, a spy on ``_PassState.rebudget`` checks every
re-budget, replayed or computed, against the object path:
``OperationSpans(pinned=..., not_before=...)``, then ``build_timed_dfg(
spans=...)``, then ``budget_slack(graph=..., initial_variants=<the grades
before the call>, pinned_variants=...)``.  The pending operations' spans
(eligible edges and late edge, from the update's masks and late-edge
positions), their priorities, the grades the update returns and the
:class:`TimingError` text must all be equal, as in
``tests/test_core_pass_state.py``.
"""

import pytest

from repro.core import slack_scheduler
from repro.core.budgeting import budget_slack
from repro.core.opspan import OperationSpans
from repro.core.slack_scheduler import SlackScheduler, _PassState
from repro.core.timed_dfg import build_timed_dfg
from repro.errors import ReproError, TimingError
from repro.flows import idct_design_points, slack_based_flow
from repro.flows.pipeline import grade_map
from repro.sched.priorities import combined_priority
from repro.sched.schedule import Schedule
from repro.verify.scenarios import scenario_stream
from repro.workloads import IDCTPointFactory

_POINTS = {point.name: point for point in idct_design_points(clock_period=1500.0)}

#: The Table-4 points of ``perfbench``'s ``table4-rows2-light`` workload.
_LIGHT = sorted(set(_POINTS) - {"D2", "D7"}, key=lambda name: int(name[1:]))


def span_edges(bits, mask):
    """The forward edges of a span mask, in topological order."""
    return tuple(name for bit, name in enumerate(bits.names)
                 if mask >> bit & 1)


def _pending(state, schedule):
    """The operations ``schedule`` has not placed, in op-table order."""
    return [name for name in state._budget.template.names
            if not schedule.is_scheduled(name)]


def _expected(state, schedule, next_edge, pending):
    """The object path's re-budget: ``(spans, budget)``, or the text of
    the :class:`TimingError` it raises.  The warm start is the pending
    operations' grades before the call, the budget state's."""
    scheduler = state._scheduler
    design = scheduler.design
    latency = scheduler._latency
    names = state._budget.template.names
    warm = {name: grade for name, grade in zip(names, state._budget.variants)
            if grade is not None and name in pending}
    pinned = dict(schedule.variant_map())
    for name, grade in scheduler._locked.items():
        pinned.setdefault(name, grade)
    try:
        spans = OperationSpans(design, latency=latency,
                               pinned=schedule.as_sched_map(),
                               not_before=next_edge)
        graph = build_timed_dfg(design, spans=spans, latency=latency).compact()
    except TimingError as error:
        return str(error)
    return spans, budget_slack(design, scheduler.library,
                               scheduler.clock_period,
                               margin_fraction=scheduler.margin_fraction,
                               graph=graph, initial_variants=warm,
                               pinned_variants=pinned)


class _Checker:
    """Checks every re-budget against the object path while installed, and
    counts the re-budgets and the replays.  A mismatch raises
    :class:`AssertionError` out of the run."""

    def __init__(self, monkeypatch):
        self.rebudgets = self.replayed = 0
        rebudget = slack_scheduler._PassState.rebudget

        def checking(state, edge_name, schedule, next_edge):
            pending = set(_pending(state, schedule))
            expected = _expected(state, schedule, next_edge, pending)
            try:
                update = rebudget(state, edge_name, schedule, next_edge)
            except TimingError as error:
                self._check(state, edge_name, expected, str(error))
                raise
            self._check(state, edge_name, expected, update, pending)
            return update

        monkeypatch.setattr(slack_scheduler._PassState, "rebudget", checking)

    def _check(self, state, edge_name, expected, outcome, pending=()):
        self.rebudgets += 1
        self.replayed += state.replayed
        where = (state._scheduler.design.name, edge_name, state.replayed)
        if isinstance(expected, str) or isinstance(outcome, str):
            assert outcome == expected, where
            return
        spans, budget = expected
        priority, grades, masks, lates = outcome
        reference = combined_priority(budget.timing, spans)
        bits = state._scheduler._latency.edge_bitsets()
        index = state._budget.template.index
        for name in pending:
            info = spans.span(name)
            assert span_edges(bits, masks[index[name]]) == info.edges, \
                (where, name)
            assert bits.labels[lates[index[name]]] == info.late, (where, name)
            assert priority(index[name]) == reference(name), (where, name)
            assert grades[index[name]] is budget.variants[name], (where, name)


def test_light_points_match_the_object_path(library, monkeypatch):
    """The 13 light points, D5, D6 and D8 among them: 251 of their 652
    re-budgets replay."""
    checker = _Checker(monkeypatch)
    replayed = {}
    for name in _LIGHT:
        before = checker.replayed
        slack_based_flow(IDCTPointFactory(rows=2)(_POINTS[name]), library)
        replayed[name] = checker.replayed - before
    assert all(replayed[name] > 0 for name in ("D5", "D6", "D8"))
    assert (checker.rebudgets, checker.replayed) == (652, 251)


def test_scenarios_match_the_object_path(library, monkeypatch):
    """The block scenarios among the first 300 of ``scenario_stream(0)``:
    247 of their 2,683 re-budgets replay, in 21 scenarios."""
    checker = _Checker(monkeypatch)
    replaying = 0
    for _, spec in scenario_stream(0, 300):
        if spec.pipeline_ii is not None:
            continue
        before = checker.replayed
        try:
            slack_based_flow(spec.design(), library,
                             clock_period=spec.clock_period)
        except ReproError:
            pass
        replaying += checker.replayed > before
    assert (replaying, checker.replayed, checker.rebudgets) == (21, 247, 2683)


def _faulty(ignored):
    """A replay condition that ignores ``ignored``: the grades before the
    loop (``"grades"``) or the pinned flags (``"pinned"``)."""

    def replayable(state, edge_name, next_edge):
        previous = state._previous
        kept = previous.get(edge_name) if previous is not None else None
        if kept is None or kept.early != state._layer.early:
            return None
        budget = state._budget
        if ignored != "grades" and kept.grades != budget.variants:
            return None
        if ignored != "pinned" and kept.pinned != budget.pinned:
            return None
        return kept

    return replayable


def _second_pass(library, monkeypatch, change):
    """Re-budget the first edge of rows=1 D8's schedule in two fresh passes
    from the fastest grades, both checked against the object path: pass A,
    then pass B given A's re-budgets, with one input changed.  ``None``
    changes nothing; ``"grades"`` locks a pending operation at its fastest
    grade in A and at its slowest in B; ``"pinned"`` locks, in B only, an
    operation that A's loop moved, at the grade it had before the loop.
    Returns B's pass state, A's and B's grade lists and the pending
    operations' indices."""
    design = IDCTPointFactory(rows=1)(_POINTS["D8"])
    scheduler = SlackScheduler(design, library, design.clock_period)
    result = scheduler.run()
    first_edge, next_edge = scheduler._latency.forward_edge_names[:2]
    prefix = Schedule(design, design.clock_period)
    for item in result.schedule.ops_on_edge(first_edge):
        prefix.assign(item.op, first_edge, 0, item.start, item.finish,
                      item.variant)
    fastest = grade_map(design, library, "fastest")
    slowest = grade_map(design, library, "slowest")
    pending = frozenset(name for name in fastest
                        if not prefix.is_scheduled(name))
    graded = next(name for name in sorted(pending)
                  if fastest[name] is not slowest[name])
    _Checker(monkeypatch)
    scheduler._locked = {graded: fastest[graded]} if change == "grades" else {}
    first = _PassState(scheduler, dict(fastest))
    _, first_grades, _, _ = first.rebudget(first_edge, prefix, next_edge)
    index = first._budget.template.index
    if change == "grades":
        scheduler._locked = {graded: slowest[graded]}
    elif change == "pinned":
        moved = next(name for name in sorted(pending)
                     if first_grades[index[name]] is not fastest[name])
        scheduler._locked = {moved: fastest[moved]}
    second = _PassState(scheduler, dict(fastest), first.rebudgets)
    _, second_grades, _, _ = second.rebudget(first_edge, prefix, next_edge)
    return (second, first_grades, second_grades,
            [index[name] for name in pending])


@pytest.mark.parametrize("change", [None, "grades", "pinned"])
def test_a_pass_replays_only_an_equal_input(change, library, monkeypatch):
    second, first_grades, second_grades, pending = _second_pass(
        library, monkeypatch, change)
    assert second.replayed is (change is None)
    differs = any(second_grades[index] is not first_grades[index]
                  for index in pending)
    assert differs is (change is not None)


@pytest.mark.parametrize("ignored", ["grades", "pinned"])
def test_a_replay_condition_that_ignores_an_input_is_caught(ignored, library,
                                                            monkeypatch):
    monkeypatch.setattr(slack_scheduler._PassState, "_replayable",
                        _faulty(ignored))
    with pytest.raises(AssertionError):
        _second_pass(library, monkeypatch, ignored)


def test_a_second_run_replays_nothing_from_the_first(library, monkeypatch):
    design = IDCTPointFactory(rows=2)(_POINTS["D8"])
    scheduler = SlackScheduler(design, library, design.clock_period)
    flags = []
    rebudget = slack_scheduler._PassState.rebudget

    def recording(state, *args):
        try:
            return rebudget(state, *args)
        finally:
            flags[-1].append(state.replayed)

    monkeypatch.setattr(slack_scheduler._PassState, "rebudget", recording)
    results = []
    for _ in range(2):
        flags.append([])
        results.append(scheduler.run())
        assert scheduler._rebudgets is None
    first, second = results
    assert flags[0] == flags[1] and any(flags[0])
    assert second.schedule.as_sched_map() == first.schedule.as_sched_map()
    assert second.variants == first.variants
    assert second.rebudget_count == first.rebudget_count
    assert second.relaxation.messages == first.relaxation.messages
