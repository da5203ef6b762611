"""Parametric characterisation of resource area/delay tradeoff curves.

The paper characterises resources from a TSMC 90 nm standard-cell library;
its Table 1 shows two such curves.  This module provides a parametric model
that generates plausible curves for every operation kind and bit width, so
that whole designs (not just 8x8 multiplies and 16-bit adds) can be pushed
through the flow.  The model is calibrated so that the generated 8x8
multiplier and 16-bit adder classes land close to Table 1; the
:mod:`repro.lib.tsmc90` library then *overrides* those two classes with the
exact published numbers.

Model
-----
For a kind ``k`` and width ``w``:

* fastest delay   ``d_fast = delay_base * w ** delay_exp``
* slowest delay   ``d_slow = slow_factor * d_fast``
* largest area    ``a_fast = area_base * w ** area_exp``
* smallest area   ``a_slow = area_recovery * a_fast``
* for a grade at delay ``d`` in ``[d_fast, d_slow]``::

      x = (d - d_fast) / (d_slow - d_fast)
      area(d) = a_slow + (a_fast - a_slow) * (1 - x) ** gamma

``gamma > 1`` makes the curve steep near the fast end, which matches the
published curves (most of the area is spent buying the last picoseconds).
A grade's switching energy equals its area and its leakage is 1 % of it.

Nothing here is memoized: a process normally builds its library once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import LibraryError
from repro.ir.operations import OpKind
from repro.lib.resource import ResourceClass, ResourceVariant


@dataclass(frozen=True)
class KindModel:
    """Parametric area/delay model for one operation kind."""

    delay_base: float
    delay_exp: float
    slow_factor: float
    area_base: float
    area_exp: float
    area_recovery: float
    gamma: float = 2.5
    num_grades: int = 6

    def fast_delay(self, width: int) -> float:
        return self.delay_base * (max(width, 1) ** self.delay_exp)

    def slow_delay(self, width: int) -> float:
        return self.slow_factor * self.fast_delay(width)

    def fast_area(self, width: int) -> float:
        return self.area_base * (max(width, 1) ** self.area_exp)

    def slow_area(self, width: int) -> float:
        return self.area_recovery * self.fast_area(width)


def characterize_class(
    kind: OpKind,
    width: int,
    model: KindModel,
    num_grades: Optional[int] = None,
) -> ResourceClass:
    """Generate a :class:`ResourceClass` for ``kind`` at ``width``."""
    if width < 1:
        raise LibraryError(f"cannot characterise width {width}")
    grades = num_grades or model.num_grades
    if grades < 1:
        raise LibraryError("a resource class needs at least one grade")

    d_fast = model.fast_delay(width)
    d_slow = model.slow_delay(width)
    a_fast = model.fast_area(width)
    a_slow = model.slow_area(width)

    variants: List[ResourceVariant] = []
    for grade in range(grades):
        if grades == 1:
            delay = d_fast
            area = a_fast
        else:
            x = grade / (grades - 1)
            delay = d_fast + x * (d_slow - d_fast)
            area = a_slow + (a_fast - a_slow) * ((1.0 - x) ** model.gamma)
        variants.append(
            ResourceVariant(
                name=f"{kind.value}{width}_g{grade}",
                kind=kind,
                width=width,
                delay=round(delay, 3),
                area=round(max(area, 1.0), 3),
                grade=grade,
                energy=round(max(area, 1.0), 3),
                leakage=round(0.01 * max(area, 1.0), 5),
            )
        )
    return ResourceClass(kind, width, variants)


def default_kind_models() -> Dict[OpKind, KindModel]:
    """Calibrated models for every synthesizable kind.

    Adder at w=16 -> fast 220 ps / 556 area, matching Table 1's fast corner;
    multiplier at w=8 -> fast 430 ps / 877 area, matching Table 1.
    """
    adder_like = KindModel(
        delay_base=55.0, delay_exp=0.5, slow_factor=5.5,
        area_base=34.75, area_exp=1.0, area_recovery=0.37,
        gamma=4.0, num_grades=6,
    )
    comparator = KindModel(
        delay_base=45.0, delay_exp=0.5, slow_factor=4.0,
        area_base=20.0, area_exp=1.0, area_recovery=0.45,
        gamma=3.0, num_grades=5,
    )
    multiplier = KindModel(
        delay_base=53.75, delay_exp=1.0, slow_factor=1.42,
        area_base=13.72, area_exp=2.0, area_recovery=0.58,
        gamma=2.2, num_grades=6,
    )
    divider = KindModel(
        delay_base=160.0, delay_exp=1.0, slow_factor=1.8,
        area_base=16.0, area_exp=2.0, area_recovery=0.62,
        gamma=2.0, num_grades=5,
    )
    shifter = KindModel(
        delay_base=90.0, delay_exp=0.30, slow_factor=2.5,
        area_base=18.0, area_exp=1.1, area_recovery=0.55,
        gamma=2.0, num_grades=4,
    )
    bitwise = KindModel(
        delay_base=60.0, delay_exp=0.15, slow_factor=2.0,
        area_base=8.0, area_exp=1.0, area_recovery=0.60,
        gamma=1.8, num_grades=3,
    )
    unary = KindModel(
        delay_base=70.0, delay_exp=0.35, slow_factor=3.0,
        area_base=12.0, area_exp=1.0, area_recovery=0.50,
        gamma=2.0, num_grades=4,
    )
    mux = KindModel(
        delay_base=55.0, delay_exp=0.10, slow_factor=1.8,
        area_base=6.0, area_exp=1.0, area_recovery=0.70,
        gamma=1.5, num_grades=3,
    )

    return {
        OpKind.ADD: adder_like,
        OpKind.SUB: adder_like,
        OpKind.MUL: multiplier,
        OpKind.DIV: divider,
        OpKind.MOD: divider,
        OpKind.NEG: unary,
        OpKind.ABS: unary,
        OpKind.AND: bitwise,
        OpKind.OR: bitwise,
        OpKind.XOR: bitwise,
        OpKind.NOT: bitwise,
        OpKind.SHL: shifter,
        OpKind.SHR: shifter,
        OpKind.LT: comparator,
        OpKind.GT: comparator,
        OpKind.LE: comparator,
        OpKind.GE: comparator,
        OpKind.EQ: comparator,
        OpKind.NE: comparator,
        OpKind.MUX: mux,
    }
