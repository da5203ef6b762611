"""Resource allocation: how many instances of each resource class to provide.

Allocation in this reproduction is a *constraint* on the scheduler (at most
``allocation[class]`` operations of a class per state, or per II-congruent
state group for pipelined designs); binding later materialises concrete
instances.  :func:`minimal_allocation` computes the obvious lower bound
``ceil(#ops / #available states)`` per class, which is the paper's "minimal
set of resources" starting point; the relaxation loop then grows it on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.ir.design import Design
from repro.ir.operations import Operation
from repro.lib.library import Library
from repro.core.analysis_cache import default_cache
from repro.core.opspan import OperationSpans

#: A resource class is identified by (kind value, characterised width).
ClassKey = Tuple[str, int]


def resource_class_key(op: Operation, library: Library) -> Optional[ClassKey]:
    """The allocation/binding class of ``op`` (None for free and I/O ops)."""
    if not op.is_synthesizable:
        return None
    resource_class = library.class_for_op(op)
    return (resource_class.kind.value, resource_class.width)


@dataclass
class Allocation:
    """Instance-count limits per resource class."""

    limits: Dict[ClassKey, int] = field(default_factory=dict)

    def limit(self, key: Optional[ClassKey]) -> int:
        if key is None:
            return 10 ** 9
        return self.limits.get(key, 0)

    def add(self, key: ClassKey, count: int = 1) -> None:
        self.limits[key] = self.limits.get(key, 0) + count

    def copy(self) -> "Allocation":
        return Allocation(limits=dict(self.limits))

    def describe(self) -> str:
        parts = [f"{kind}/{width}x{count}"
                 for (kind, width), count in sorted(self.limits.items())]
        return ", ".join(parts) if parts else "(empty)"

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Allocation({self.describe()})"


def minimal_allocation(
    design: Design,
    library: Library,
    spans: Optional[OperationSpans] = None,
    pipeline_ii: Optional[int] = None,
) -> Allocation:
    """Lower-bound allocation for ``design``.

    For every resource class the number of instances is at least
    ``ceil(#ops of that class / #states available to them)``.  The states
    available to a class are the distinct CFG edges covered by the spans of
    its operations, capped at the initiation interval for pipelined designs
    (operations in II-congruent states share instances, so only II distinct
    slots exist).
    """
    spans = spans or OperationSpans(design)
    pipeline_ii = pipeline_ii or design.pipeline_ii

    table = default_cache().budget_template(design, library)
    edges_per_class: Dict[ClassKey, set] = {}
    for name, key in zip(table.names, table.class_keys):
        if key is not None:
            edges_per_class.setdefault(key, set()).update(spans.span(name).edges)

    allocation = Allocation()
    for key, count in table.class_counts.items():
        slots = max(len(edges_per_class[key]), 1)
        if pipeline_ii is not None:
            slots = min(slots, max(pipeline_ii, 1))
        allocation.limits[key] = max(1, math.ceil(count / slots))
    return allocation
