"""Unit tests for the Library and technology parameters."""

import pytest

from repro.errors import LibraryError
from repro.ir.operations import Operation, OpKind
from repro.lib import Library, TechnologyParameters, tsmc90_library


def test_width_rounding_up(library):
    cls = library.class_for(OpKind.ADD, 12)
    assert cls.width == 16
    cls = library.class_for(OpKind.ADD, 17)
    assert cls.width == 24


def test_width_beyond_characterisation_uses_widest(library):
    cls = library.class_for(OpKind.ADD, 500)
    assert cls.width == 64


def test_unknown_kind_rejected():
    empty = Library("empty")
    with pytest.raises(LibraryError):
        empty.class_for(OpKind.ADD, 8)


def test_operation_delay_for_all_categories(library):
    add = Operation(name="a", kind=OpKind.ADD, width=16)
    const = Operation(name="c", kind=OpKind.CONST, width=16, value=1)
    read = Operation(name="r", kind=OpKind.READ, width=16, operand_widths=())
    assert library.operation_delay(add) == library.fastest_variant(add).delay
    assert library.operation_delay(const) == 0.0
    assert library.operation_delay(read) == library.technology.io_delay


def test_delay_range_and_selection(library):
    add = Operation(name="a", kind=OpKind.ADD, width=16)
    low, high = library.delay_range_for_op(add)
    assert low == 220.0 and high == 1220.0
    assert library.select_variant(add, 500.0).delay == 400.0
    assert library.select_variant(add, 10000.0).delay == 1220.0


def test_class_for_op_rejects_free_ops(library):
    const = Operation(name="c", kind=OpKind.CONST, width=16, value=1)
    with pytest.raises(LibraryError):
        library.class_for_op(const)


def test_duplicate_class_requires_replace(library):
    # A library never replaces a class: a second one for the same
    # (kind, width) is refused.
    mul_class = library.class_for(OpKind.MUL, 8)
    with pytest.raises(LibraryError):
        library.add_class(mul_class)


def test_library_contents_queries(library):
    assert (OpKind.MUL, 8) in library
    assert "mul" in library.describe()


def test_technology_mux_model():
    tech = TechnologyParameters(mux2_area_per_bit=2.0, mux_delay_per_stage=50.0)
    assert tech.mux_area(1, 16) == 0.0
    assert tech.mux_area(2, 16) == pytest.approx(32.0)
    assert tech.mux_area(4, 16) == pytest.approx(96.0)
    assert tech.mux_delay(1) == 0.0
    assert tech.mux_delay(2) == 50.0
    assert tech.mux_delay(5) == 150.0


def test_default_technology_has_zero_timing_overheads(library):
    tech = library.technology
    assert tech.mux_delay_per_stage == 0.0
    assert tech.register_setup == 0.0
    assert tech.io_delay == 0.0
    assert tech.register_area_per_bit > 0
