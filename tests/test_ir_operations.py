"""Unit tests for repro.ir.operations."""

import pytest

from repro.ir.operations import (
    COMMUTATIVE_KINDS,
    COMPARISON_KINDS,
    IO_KINDS,
    Operation,
    OpKind,
    is_fixed_kind,
    is_io,
    is_synthesizable,
)


def test_io_kinds_are_fixed():
    assert is_io(OpKind.READ)
    assert is_io(OpKind.WRITE)
    assert is_fixed_kind(OpKind.READ)
    assert not is_fixed_kind(OpKind.ADD)


def test_synthesizable_classification():
    assert is_synthesizable(OpKind.ADD)
    assert is_synthesizable(OpKind.MUL)
    assert not is_synthesizable(OpKind.CONST)
    assert not is_synthesizable(OpKind.COPY)
    assert not is_synthesizable(OpKind.READ)
    assert not is_synthesizable(OpKind.WRITE)


def test_comparison_results_are_one_bit():
    op = Operation(name="cmp", kind=OpKind.LT, width=16, operand_widths=(16, 16))
    assert op.width == 1
    assert op.operand_widths == (16, 16)
    assert op.max_operand_width == 16


def test_io_operations_are_always_fixed():
    op = Operation(name="rd", kind=OpKind.READ, width=8, operand_widths=())
    assert op.is_fixed
    assert op.is_io
    assert not op.is_synthesizable


def test_default_operand_widths_follow_result_width():
    op = Operation(name="a", kind=OpKind.ADD, width=12)
    assert op.operand_widths == (12, 12)
    assert op.max_operand_width == 12


def test_const_operations_have_no_default_operands():
    op = Operation(name="c", kind=OpKind.CONST, width=8, value=5)
    assert op.operand_widths == ()
    assert not op.is_synthesizable


def test_operations_hash_by_identity_uid():
    a = Operation(name="x", kind=OpKind.ADD, width=8)
    b = Operation(name="x", kind=OpKind.ADD, width=8)
    assert a != b
    assert len({a, b}) == 2


def test_commutative_and_comparison_sets_are_disjoint_from_io():
    assert not (COMMUTATIVE_KINDS & IO_KINDS)
    assert not (COMPARISON_KINDS & IO_KINDS)
    assert OpKind.ADD in COMMUTATIVE_KINDS
    assert OpKind.SUB not in COMMUTATIVE_KINDS
    assert OpKind.LT in COMPARISON_KINDS
