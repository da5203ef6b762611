"""The resource :class:`Library` used by allocation, budgeting and binding.

The library answers three questions for the flows:

1. *Which speed grades can implement operation o?* — :meth:`Library.class_for_op`
2. *What are the fastest/slowest delays of o?* — :meth:`Library.delay_range_for_op`
3. *Which grade is the cheapest one meeting a delay budget?* —
   :meth:`Library.select_variant`

It also carries technology parameters (register/mux/FSM costs, I/O delays)
consumed by the RTL area/timing/power models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import LibraryError
from repro.ir.operations import Operation, OpKind
from repro.lib.resource import ResourceClass, ResourceVariant


@dataclass(frozen=True)
class TechnologyParameters:
    """Technology-level constants shared by the datapath models.

    All delays in picoseconds, all areas in the same arbitrary units as the
    resource areas (paper Table 1 units).

    The default *timing* overheads (register setup/clk-to-q, mux stage delay,
    I/O delay) are zero, matching the paper's illustrative assumption of
    Section II ("ignore the delays of multiplexors and registers"); their
    *areas* are still counted.
    """

    register_area_per_bit: float = 6.0
    register_setup: float = 0.0
    register_clk_to_q: float = 0.0
    mux2_area_per_bit: float = 2.2
    mux_delay_per_stage: float = 0.0
    io_delay: float = 0.0
    fsm_area_per_state: float = 25.0
    fsm_area_per_transition: float = 8.0
    wire_delay_fraction: float = 0.0
    dynamic_energy_factor: float = 1.0
    leakage_power_factor: float = 0.01

    def mux_area(self, num_inputs: int, width: int) -> float:
        """Area of an ``num_inputs``-to-1 multiplexer of ``width`` bits."""
        if num_inputs <= 1:
            return 0.0
        return self.mux2_area_per_bit * width * (num_inputs - 1)

    def mux_delay(self, num_inputs: int) -> float:
        """Delay through an ``num_inputs``-to-1 multiplexer tree."""
        if num_inputs <= 1:
            return 0.0
        stages = max(1, (num_inputs - 1).bit_length())
        return self.mux_delay_per_stage * stages


class Library:
    """A collection of :class:`ResourceClass` objects plus technology data."""

    def __init__(self, name: str = "library"):
        self.name = name
        self.technology = TechnologyParameters()
        self._classes: Dict[Tuple[OpKind, int], ResourceClass] = {}
        # Memoized lookups.  Scheduling and budgeting ask the same
        # (kind, width) questions thousands of times per design point, and a
        # DSE sweep multiplies that by the number of points; these caches make
        # repeated characterisation lookups O(1).  They are plain dicts so a
        # Library pickles cleanly into process-pool workers.
        self._widths_cache: Dict[OpKind, List[int]] = {}
        self._class_cache: Dict[Tuple[OpKind, int], ResourceClass] = {}
        self._delay_range_cache: Dict[Tuple[OpKind, int], Tuple[float, float]] = {}

    # -- construction -----------------------------------------------------------

    def add_class(self, resource_class: ResourceClass) -> None:
        key = (resource_class.kind, resource_class.width)
        if key in self._classes:
            raise LibraryError(
                f"library already has a class for {key[0].value}/{key[1]}"
            )
        self._classes[key] = resource_class
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        self._widths_cache.clear()
        self._class_cache.clear()
        self._delay_range_cache.clear()

    # -- queries ------------------------------------------------------------------

    @property
    def classes(self) -> List[ResourceClass]:
        return list(self._classes.values())

    def kinds(self) -> List[OpKind]:
        return sorted({kind for kind, _ in self._classes}, key=lambda k: k.value)

    def widths_for_kind(self, kind: OpKind) -> List[int]:
        cached = self._widths_cache.get(kind)
        if cached is None:
            cached = sorted(width for k, width in self._classes if k is kind)
            self._widths_cache[kind] = cached
        return list(cached)

    def has_kind(self, kind: OpKind) -> bool:
        return any(k is kind for k, _ in self._classes)

    def class_for(self, kind: OpKind, width: int) -> ResourceClass:
        """The resource class for ``kind`` at the smallest width >= ``width``.

        HLS tools round operand widths up to the nearest characterised width;
        we do the same.  If no characterised width is large enough the widest
        class is returned (a conservative under-estimate of delay/area is
        preferable to a hard failure on exotic widths).
        """
        cached = self._class_cache.get((kind, width))
        if cached is not None:
            return cached
        widths = self._widths_cache.get(kind)
        if widths is None:
            widths = sorted(w for k, w in self._classes if k is kind)
            self._widths_cache[kind] = widths
        if not widths:
            raise LibraryError(f"library has no resource for kind {kind.value!r}")
        resolved = widths[-1]
        for candidate in widths:
            if candidate >= width:
                resolved = candidate
                break
        resource_class = self._classes[(kind, resolved)]
        self._class_cache[(kind, width)] = resource_class
        return resource_class

    def class_for_op(self, op: Operation) -> ResourceClass:
        """The resource class implementing DFG operation ``op``."""
        if not op.is_synthesizable:
            raise LibraryError(
                f"operation {op.name!r} ({op.kind.value}) does not use a "
                f"functional-unit resource"
            )
        return self.class_for(op.kind, op.max_operand_width)

    # -- delays -------------------------------------------------------------------

    def operation_delay(self, op: Operation, variant: Optional[ResourceVariant] = None,
                        ) -> float:
        """Delay of ``op`` when implemented on ``variant``.

        Free operations (constants, copies) have zero delay; I/O operations
        take the technology's fixed I/O delay.  For synthesizable operations
        the variant's pin-to-pin delay is used (defaulting to the fastest
        grade when no variant is given).
        """
        if op.kind in (OpKind.CONST, OpKind.COPY):
            return 0.0
        if op.is_io:
            return self.technology.io_delay
        if variant is None:
            variant = self.fastest_variant(op)
        return variant.delay

    def delay_range_for_op(self, op: Operation) -> Tuple[float, float]:
        """(min_delay, max_delay) achievable for ``op`` across speed grades."""
        if op.kind in (OpKind.CONST, OpKind.COPY):
            return (0.0, 0.0)
        if op.is_io:
            return (self.technology.io_delay, self.technology.io_delay)
        key = (op.kind, op.max_operand_width)
        cached = self._delay_range_cache.get(key)
        if cached is None:
            resource_class = self.class_for_op(op)
            cached = (resource_class.min_delay, resource_class.max_delay)
            self._delay_range_cache[key] = cached
        return cached

    # -- variant selection ----------------------------------------------------------

    def fastest_variant(self, op: Operation) -> Optional[ResourceVariant]:
        if not op.is_synthesizable:
            return None
        return self.class_for_op(op).fastest

    def slowest_variant(self, op: Operation) -> Optional[ResourceVariant]:
        if not op.is_synthesizable:
            return None
        return self.class_for_op(op).slowest

    def select_variant(self, op: Operation, delay_budget: float,
                       ) -> Optional[ResourceVariant]:
        """Cheapest variant for ``op`` whose delay fits ``delay_budget``."""
        if not op.is_synthesizable:
            return None
        return self.class_for_op(op).cheapest_within(delay_budget)

    def area_sensitivity(self, op: Operation, variant: ResourceVariant) -> float:
        """Area saved per ps of slow-down for ``op`` currently on ``variant``."""
        if not op.is_synthesizable:
            return 0.0
        return self.class_for_op(op).area_sensitivity(variant)

    # -- reporting -----------------------------------------------------------------

    def tradeoff_table(self, kind: OpKind, width: int) -> List[Tuple[float, float]]:
        """(delay, area) rows for one class — regenerates a Table 1 row pair."""
        return self.class_for(kind, width).tradeoff_points()

    def describe(self) -> str:
        """Multi-line human-readable summary of the library contents."""
        lines = [f"Library {self.name!r}: {len(self._classes)} resource classes"]
        for (kind, width), resource_class in sorted(
                self._classes.items(), key=lambda item: (item[0][0].value, item[0][1])):
            points = ", ".join(
                f"{delay:.0f}ps/{area:.0f}" for delay, area in
                resource_class.tradeoff_points()
            )
            lines.append(f"  {kind.value:>5} w{width:<3} : {points}")
        return "\n".join(lines)

    def __contains__(self, key: Tuple[OpKind, int]) -> bool:
        return key in self._classes

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Library({self.name}, {len(self._classes)} classes)"
