"""Tests for slack budgeting (paper Fig. 7)."""

import pytest

from repro.core.budgeting import budget_slack
from repro.errors import TimingError
from repro.ir.operations import OpKind
from repro.workloads import interpolation_design


def test_budgeting_interpolation_is_feasible(interpolation, library):
    result = budget_slack(interpolation, library, clock_period=1100.0)
    assert result.feasible
    assert result.timing.worst_slack() >= -1e-6


def test_budgeted_delays_stay_within_library_range(interpolation, library):
    result = budget_slack(interpolation, library, clock_period=1100.0)
    for op in interpolation.dfg.operations:
        if not op.is_synthesizable:
            continue
        low, high = library.delay_range_for_op(op)
        assert low - 1e-6 <= result.delay_of(op.name) <= high + 1e-6
        variant = result.variant_of(op.name)
        assert variant is not None
        assert variant.delay == pytest.approx(result.delay_of(op.name))


def test_budgeting_saves_area_versus_all_fastest(interpolation, library):
    result = budget_slack(interpolation, library, clock_period=1100.0)
    all_fastest = sum(
        library.fastest_variant(op).area
        for op in interpolation.dfg.operations if op.is_synthesizable
    )
    assert result.total_variant_area() < all_fastest
    histogram = result.grade_histogram()
    assert sum(histogram.values()) == len(
        [op for op in interpolation.dfg.operations if op.is_synthesizable])
    # At least one operation must have been slowed below the fastest grade.
    assert any(grade > 0 for grade in histogram)


def test_budgeting_upgrades_when_started_slow(interpolation, library):
    """With the 1100 ps clock the slowest multipliers (610 ps) cannot chain
    twice in a cycle, so the negative-slack repair must upgrade something."""
    result = budget_slack(interpolation, library, clock_period=1100.0)
    assert result.feasible
    assert result.upgrades > 0
    assert result.iterations >= result.upgrades + result.downgrades


def test_budgeting_with_generous_clock_picks_slowest_grades(library):
    """With a very relaxed clock, a shallow design settles on the slowest
    (cheapest) grade of every resource."""
    from repro.ir import LinearDesignBuilder

    builder = LinearDesignBuilder("easy", 3)
    a = builder.read("a", "e1", width=16)
    b = builder.read("b", "e1", width=16)
    product = builder.binary(OpKind.MUL, a.name, b.name, "e1", width=16, name="m")
    total = builder.binary(OpKind.ADD, a.name, b.name, "e1", width=16, name="s")
    builder.write("p", "e3", product.name, width=16)
    builder.write("q", "e3", total.name, width=16)
    design = builder.build()

    result = budget_slack(design, library, clock_period=4000.0)
    assert result.feasible
    for name in ("m", "s"):
        op = design.dfg.op(name)
        assert result.variant_of(name).grade == library.slowest_variant(op).grade


def test_budgeting_detects_infeasible_clock(interpolation, library):
    """A clock shorter than the fastest multiplier can never be met."""
    result = budget_slack(interpolation, library, clock_period=400.0)
    assert not result.feasible
    assert result.timing.worst_slack() < 0


def test_pinned_variants_are_not_changed(interpolation, library):
    pinned_op = "mul_x_0"
    op = interpolation.dfg.op(pinned_op)
    fastest = library.fastest_variant(op)
    result = budget_slack(interpolation, library, clock_period=1100.0,
                          pinned_variants={pinned_op: fastest})
    assert result.variant_of(pinned_op) is fastest


def test_warm_start_preserves_feasibility(interpolation, library):
    first = budget_slack(interpolation, library, clock_period=1100.0)
    warm = {name: variant for name, variant in first.variants.items()
            if variant is not None}
    second = budget_slack(interpolation, library, clock_period=1100.0,
                          initial_variants=warm)
    assert second.feasible
    assert second.iterations <= first.iterations


def test_margin_binning_changes_margin(interpolation, library):
    tight = budget_slack(interpolation, library, 1100.0, margin_fraction=0.0)
    loose = budget_slack(interpolation, library, 1100.0, margin_fraction=0.10)
    assert tight.margin == 0.0
    assert loose.margin == pytest.approx(110.0)
    assert tight.feasible and loose.feasible


def test_invalid_clock_rejected(interpolation, library):
    with pytest.raises(TimingError):
        budget_slack(interpolation, library, clock_period=0.0)
