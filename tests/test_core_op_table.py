"""The op table: every operation resolved once per (design, library).

:class:`repro.core.budgeting._BudgetTemplate` resolves each operation's
class, class key, delays and neighbours once, and every scheduling pass of
both flows reads it: the list scheduler, the relaxation bound, the minimal
allocation, the slack pass's pass-start delays, binding and the flows'
initial grade maps (``grade_map``).  These tests check that the table
equals resolving each operation on its own, that one table serves a whole
design point, and that a design that grew after its first use gets a new
one.
"""

import sys
from collections import Counter

import pytest

from repro.bind import binding
from repro.core import analysis_cache
from repro.core.analysis_cache import AnalysisCache, default_cache
from repro.core.budgeting import _BudgetTemplate
from repro.core.slack_scheduler import SlackScheduler
from repro.errors import ReproError
from repro.flows import evaluate_point, idct_design_points, slack_based_flow
from repro.flows.pipeline import grade_map
from repro.ir.operations import OpKind
from repro.lib.library import Library
from repro.sched import allocation, list_scheduler, relaxation
from repro.sched.allocation import resource_class_key
from repro.verify.scenarios import scenario_stream
from repro.workloads import IDCTPointFactory, interpolation_design

#: The code of the table's six readers: none may resolve an operation.
_READERS = {
    list_scheduler.try_list_schedule.__code__,
    relaxation._add_instance.__code__,
    allocation.minimal_allocation.__code__,
    SlackScheduler._schedule_pass.__code__,
    binding.bind_operations.__code__,
    grade_map.__code__,
}


def _designs():
    d8 = next(point for point in idct_design_points(clock_period=1500.0)
              if point.name == "D8")
    return ([interpolation_design(), IDCTPointFactory(rows=1)(d8)]
            + [spec.design() for _, spec in scenario_stream(7, 12)])


@pytest.mark.parametrize("design", _designs(), ids=lambda design: design.name)
def test_the_table_equals_resolving_each_operation(design, library):
    table = AnalysisCache().budget_template(design, library)
    ops = [op for op in design.dfg.operations if op.kind is not OpKind.CONST]
    assert table.names == tuple(op.name for op in ops)
    assert table.class_keys == [resource_class_key(op, library) for op in ops]
    counts = Counter(resource_class_key(op, library)
                     for op in design.dfg.operations)
    del counts[None]
    assert table.class_counts == dict(counts)
    assert [table.pinned_delay(index, None) for index in range(len(ops))] \
        == [library.operation_delay(op) for op in ops]
    index = table.index
    assert table.preds == [tuple(index[pred]
                                 for pred in design.dfg.predecessors(op.name)
                                 if pred in index) for op in ops]
    assert [table.names[i] for i in table.scan_order] == sorted(table.names)
    assert [table.names[i] for i in table.topo_order] == [
        name for name in design.dfg.topological_order() if name in index]
    # Each edge once per use, as a successor in consumer-name order.
    for succs in table.succs:
        names = [table.names[succ] for succ in succs]
        assert names == sorted(names)
    assert Counter((pred, op) for op, preds in enumerate(table.preds)
                   for pred in preds) \
        == Counter((op, succ) for op, succs in enumerate(table.succs)
                   for succ in succs)


@pytest.mark.parametrize("grades", ["fastest", "slowest"])
def test_grade_maps_equal_the_library_ones(grades, library):
    pick = getattr(library, f"{grades}_variant")
    d8 = next(point for point in idct_design_points(clock_period=1500.0)
              if point.name == "D8")
    designs = ([interpolation_design(), IDCTPointFactory(rows=2)(d8)]
               + [spec.design() for _, spec in scenario_stream(7, 12)])
    for design in designs:
        expected = {op.name: pick(op) for op in design.dfg.operations
                    if op.kind is not OpKind.CONST}
        found = grade_map(design, library, grades)
        assert list(found) == list(expected)
        assert all(found[name] is grade for name, grade in expected.items())


def test_unknown_grades_are_rejected_before_the_table_is_read(monkeypatch,
                                                              library):
    monkeypatch.setattr(analysis_cache, "_default_cache", AnalysisCache())
    with pytest.raises(ReproError) as error:
        grade_map(interpolation_design(), library, "fast")
    assert str(error.value) == ("unknown initial grades 'fast' "
                                "(expected 'fastest' or 'slowest')")
    assert default_cache().cache_info()["budget_templates"]["misses"] == 0


@pytest.fixture
def resolutions(monkeypatch):
    """``resource_class_key`` calls, and the readers that resolved a class
    with ``Library.class_for_op`` outside the table's build."""
    calls = {"resource_class_key": 0, "readers": []}
    original_key = resource_class_key

    def key_spy(op, library):
        calls["resource_class_key"] += 1
        return original_key(op, library)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and \
                getattr(module, "resource_class_key", None) is original_key:
            monkeypatch.setattr(module, "resource_class_key", key_spy)

    class_for_op = Library.class_for_op

    def class_spy(self, op):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is _BudgetTemplate.__init__.__code__:
                break
            if frame.f_code in _READERS:
                calls["readers"].append(frame.f_code.co_name)
                break
            frame = frame.f_back
        return class_for_op(self, op)

    monkeypatch.setattr(Library, "class_for_op", class_spy)
    return calls


def test_one_table_serves_both_flows_every_pass_and_the_back_end(
        monkeypatch, library, resolutions):
    cache = AnalysisCache()
    monkeypatch.setattr(analysis_cache, "_default_cache", cache)
    d8 = next(point for point in idct_design_points(clock_period=1500.0)
              if point.name == "D8")
    entry = evaluate_point(IDCTPointFactory(rows=2), library, d8)
    passes = sum(flow.details["relaxation_attempts"]
                 for flow in (entry.conventional, entry.slack_based))
    assert passes > 2
    info = cache.cache_info()["budget_templates"]
    assert info["misses"] == 1
    assert info["hits"] > passes
    assert resolutions == {"resource_class_key": 0, "readers": []}


def test_a_design_that_grew_gets_a_fresh_table(monkeypatch, library):
    monkeypatch.setattr(analysis_cache, "_default_cache", AnalysisCache())
    design = interpolation_design()
    slack_based_flow(design, library, clock_period=1100.0)
    first = default_cache().budget_template(design, library)

    edge = design.dfg.op("add_sum_1").birth_edge
    design.dfg.add_op("extra_add", OpKind.ADD, width=16,
                      operand_widths=(16, 16), birth_edge=edge)
    design.dfg.connect("add_sum_0", "extra_add", 0)
    design.dfg.connect("add_sum_1", "extra_add", 1)
    grown = slack_based_flow(design, library, clock_period=1100.0)
    assert grown.schedule.is_scheduled("extra_add")
    table = default_cache().budget_template(design, library)
    assert table is not first and "extra_add" in table.index

    default_cache().clear()
    cold = slack_based_flow(design, library, clock_period=1100.0)
    assert cold.metrics() == grown.metrics()
