"""A TSMC-90nm-like resource library.

The real library used by the paper is proprietary.  This module builds a
synthetic stand-in:

* the 8x8-bit multiplier and 16-bit adder classes use the *exact* area/delay
  points published in the paper's Table 1;
* every other (kind, width) combination is generated by the parametric model
  of :mod:`repro.lib.characterize`, which is calibrated so its adder and
  multiplier predictions agree with Table 1 at those widths.

This preserves what matters for the paper's experiments: the relative span of
the curves (2-3x in area, 1.5-6x in delay) and the convex "most area buys the
last few picoseconds" shape that the slack-budgeting algorithm exploits.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.ir.operations import OpKind
from repro.lib.characterize import characterize_class, default_kind_models
from repro.lib.library import Library
from repro.lib.resource import ResourceClass, ResourceVariant

#: Paper Table 1, first row pair: 8x8-bit multiplier (delay ps, area units).
TABLE1_MUL_8x8: Tuple[Tuple[float, float], ...] = (
    (430.0, 878.0),
    (470.0, 662.0),
    (510.0, 618.0),
    (540.0, 575.0),
    (570.0, 545.0),
    (610.0, 510.0),
)

#: Paper Table 1, second row pair: 16-bit adder (delay ps, area units).
TABLE1_ADD_16: Tuple[Tuple[float, float], ...] = (
    (220.0, 556.0),
    (400.0, 254.0),
    (580.0, 225.0),
    (760.0, 216.0),
    (940.0, 210.0),
    (1220.0, 206.0),
)

#: Widths characterised for every kind (operand widths are rounded up).
DEFAULT_WIDTHS: Tuple[int, ...] = (1, 4, 8, 16, 24, 32, 48, 64)


def _class_from_points(kind: OpKind, width: int,
                       points: Sequence[Tuple[float, float]]) -> ResourceClass:
    """Build a resource class from explicit (delay, area) points; a grade's
    switching energy equals its area and its leakage is 1 % of it."""
    variants = [
        ResourceVariant(
            name=f"{kind.value}{width}_t{grade}",
            kind=kind,
            width=width,
            delay=delay,
            area=area,
            grade=grade,
            energy=round(area, 3),
            leakage=round(0.01 * area, 5),
        )
        for grade, (delay, area) in enumerate(points)
    ]
    return ResourceClass(kind, width, variants)


def tsmc90_library() -> Library:
    """Build the synthetic TSMC-90nm-like library.

    Every operation kind is characterised at :data:`DEFAULT_WIDTHS` with the
    default technology parameters, except the mul/8 and add/16 classes, which
    take the paper's exact Table 1 points.  The paper's motivating example
    (Table 2) also uses the 16-bit adder curve for its "adds"; SUB shares the
    ADD curve shape, so SUB/16 takes the ADD/16 points for faithful Table 2
    numbers.
    """
    table1 = {(OpKind.MUL, 8): TABLE1_MUL_8x8,
              (OpKind.ADD, 16): TABLE1_ADD_16,
              (OpKind.SUB, 16): TABLE1_ADD_16}
    library = Library("tsmc90-like")
    for kind, model in default_kind_models().items():
        for width in DEFAULT_WIDTHS:
            points = table1.get((kind, width))
            library.add_class(
                characterize_class(kind, width, model) if points is None
                else _class_from_points(kind, width, points))
    return library
