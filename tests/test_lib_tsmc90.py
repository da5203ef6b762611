"""Tests that the tsmc90-like library reproduces the paper's Table 1."""

import pytest

from repro.ir.operations import OpKind
from repro.lib import (
    TABLE1_ADD_16,
    TABLE1_MUL_8x8,
    characterize_class,
    default_kind_models,
)


def test_table1_multiplier_points_exact(library):
    points = library.tradeoff_table(OpKind.MUL, 8)
    assert points == list(TABLE1_MUL_8x8)


def test_table1_adder_points_exact(library):
    points = library.tradeoff_table(OpKind.ADD, 16)
    assert points == list(TABLE1_ADD_16)


def test_table1_ranges_match_paper_claims(library):
    """Paper: the curves span 2-3x in area and 1.5-6x in delay."""
    for kind, width in ((OpKind.MUL, 8), (OpKind.ADD, 16)):
        points = library.tradeoff_table(kind, width)
        delays = [d for d, _ in points]
        areas = [a for _, a in points]
        assert 1.4 <= max(delays) / min(delays) <= 6.0
        assert 1.7 <= max(areas) / min(areas) <= 3.0


def test_every_kind_and_width_is_characterised(library):
    models = default_kind_models()
    for kind in models:
        widths = [cls.width for cls in library.classes if cls.kind is kind]
        assert widths, f"kind {kind} missing from library"
        for width in widths:
            cls = library.class_for(kind, width)
            assert cls.num_grades >= 1
            assert cls.min_delay <= cls.max_delay


def test_characterisation_model_close_to_table1_at_calibration_points():
    models = default_kind_models()
    add16 = characterize_class(OpKind.ADD, 16, models[OpKind.ADD])
    assert add16.fastest.delay == pytest.approx(220.0, rel=0.05)
    assert add16.fastest.area == pytest.approx(556.0, rel=0.05)
    mul8 = characterize_class(OpKind.MUL, 8, models[OpKind.MUL])
    assert mul8.fastest.delay == pytest.approx(430.0, rel=0.05)
    assert mul8.fastest.area == pytest.approx(878.0, rel=0.05)


def test_characterised_curves_are_monotone(library):
    for cls in library.classes:
        delays = [v.delay for v in cls.variants]
        areas = [v.area for v in cls.variants]
        assert delays == sorted(delays)
        assert areas == sorted(areas, reverse=True)


def test_energy_and_leakage_scale_with_area(library):
    cls = library.class_for(OpKind.MUL, 8)
    for v in cls.variants:
        assert v.energy > 0
        assert v.leakage > 0
        assert v.energy == pytest.approx(v.area, rel=0.01)

