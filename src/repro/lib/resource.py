"""Resource variants and resource classes.

A :class:`ResourceVariant` is one concrete implementation of a function
(e.g. "16-bit carry-lookahead adder"): a (delay, area) point with power data.
A :class:`ResourceClass` groups all variants implementing the same operation
kind at the same width — i.e. one row pair of the paper's Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import LibraryError
from repro.ir.operations import OpKind


@dataclass(frozen=True)
class ResourceVariant:
    """One speed grade of a resource.

    Attributes
    ----------
    name:
        Unique name, e.g. ``"mul8x8_g0"`` (grade 0 = fastest).
    kind:
        Operation kind implemented.
    width:
        Characterised operand width (the max operand width it supports).
    delay:
        Pin-to-pin worst-case delay in picoseconds.
    area:
        Cell area in library units (the paper's Table 1 units).
    grade:
        Index within the class, 0 = fastest.
    energy:
        Switching energy per activation (arbitrary units, proportional to
        area; used by the DSE power model).
    leakage:
        Static leakage power (arbitrary units, proportional to area).
    """

    name: str
    kind: OpKind
    width: int
    delay: float
    area: float
    grade: int = 0
    energy: float = 0.0
    leakage: float = 0.0

    def __post_init__(self):
        if self.delay <= 0:
            raise LibraryError(f"variant {self.name!r} has non-positive delay")
        if self.area <= 0:
            raise LibraryError(f"variant {self.name!r} has non-positive area")


class ResourceClass:
    """All speed grades of one (kind, width) resource, sorted fastest first."""

    def __init__(self, kind: OpKind, width: int,
                 variants: Sequence[ResourceVariant]):
        if not variants:
            raise LibraryError(f"resource class {kind.value}/{width} has no variants")
        self.kind = kind
        self.width = width
        self._variants: List[ResourceVariant] = sorted(variants, key=lambda v: v.delay)
        self._check_monotone()
        # Position-by-name map: grade stepping is on the budgeting hot loop,
        # and list.index over frozen dataclasses pays a field-wise __eq__ per
        # probe.  Names are unique within a library.
        self._positions = {v.name: i for i, v in enumerate(self._variants)}

    def _check_monotone(self) -> None:
        """Faster variants must not be smaller than slower ones.

        A non-monotone curve means some variant is strictly dominated (both
        slower and bigger than another); dominated variants are dropped with
        a consistent rule rather than rejected, because characterisation
        scripts often produce a few dominated points.
        """
        kept: List[ResourceVariant] = []
        best_area = float("inf")
        # Walk from fastest to slowest keeping only variants that improve area.
        for variant in self._variants:
            if variant.area < best_area or not kept:
                kept.append(variant)
                best_area = min(best_area, variant.area)
        self._variants = kept

    # -- accessors ----------------------------------------------------------------

    @property
    def variants(self) -> List[ResourceVariant]:
        """Variants sorted from fastest (grade 0) to slowest."""
        return list(self._variants)

    @property
    def num_grades(self) -> int:
        return len(self._variants)

    @property
    def fastest(self) -> ResourceVariant:
        return self._variants[0]

    @property
    def slowest(self) -> ResourceVariant:
        return self._variants[-1]

    @property
    def min_delay(self) -> float:
        return self.fastest.delay

    @property
    def max_delay(self) -> float:
        return self.slowest.delay

    def cheapest_within(self, delay_budget: float) -> ResourceVariant:
        """Smallest-area variant whose delay fits in ``delay_budget``.

        If even the fastest grade exceeds the budget, the fastest grade is
        returned (the caller deals with the resulting negative slack).
        """
        feasible = [v for v in self._variants if v.delay <= delay_budget + 1e-9]
        if not feasible:
            return self.fastest
        return min(feasible, key=lambda v: (v.area, v.delay))

    def _position(self, variant: ResourceVariant) -> int:
        index = self._positions.get(variant.name)
        if index is not None and self._variants[index] is variant:
            return index
        # A same-named but distinct variant object (e.g. from another library
        # build) falls back to the linear scan, which raises ValueError for
        # true strangers exactly as list.index always did.
        return self._variants.index(variant)

    def next_slower(self, variant: ResourceVariant) -> Optional[ResourceVariant]:
        """The next slower grade, or None if ``variant`` is already slowest."""
        index = self._position(variant)
        if index + 1 < len(self._variants):
            return self._variants[index + 1]
        return None

    def next_faster(self, variant: ResourceVariant) -> Optional[ResourceVariant]:
        """The next faster grade, or None if ``variant`` is already fastest."""
        index = self._position(variant)
        if index > 0:
            return self._variants[index - 1]
        return None

    def area_sensitivity(self, variant: ResourceVariant) -> float:
        """Area saved per picosecond of extra delay when moving one grade slower.

        Zero when the variant is already the slowest grade.  Used by the
        slack-budgeting pass to prioritise operations whose slow-down pays
        off the most.
        """
        slower = self.next_slower(variant)
        if slower is None:
            return 0.0
        delay_increase = slower.delay - variant.delay
        if delay_increase <= 0:
            return 0.0
        return (variant.area - slower.area) / delay_increase

    def tradeoff_points(self) -> List[Tuple[float, float]]:
        """(delay, area) points from fastest to slowest — a Table 1 row pair."""
        return [(v.delay, v.area) for v in self._variants]

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"ResourceClass({self.kind.value}, w={self.width}, "
            f"{len(self._variants)} grades, "
            f"delay {self.min_delay:.0f}..{self.max_delay:.0f} ps)"
        )
