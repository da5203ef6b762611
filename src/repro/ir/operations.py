"""Operation kinds and the DFG operation vertex.

Operations are the vertices of the data-flow graph.  Each operation has a
*kind* (what functional unit class can implement it), a result bit width and
operand bit widths.  I/O operations (port reads/writes) are *fixed*: they can
only ever be scheduled on their birth edge because they implement the
communication protocol with the environment (paper Section IV).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple


class OpKind(enum.Enum):
    """Kinds of DFG operations.

    The names deliberately match the resource classes of the library
    (:mod:`repro.lib`): an ``ADD`` operation is implemented by an ``add``
    resource, a comparison by a ``cmp`` resource, and so on.
    """

    # Arithmetic
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    NEG = "neg"
    ABS = "abs"
    # Bitwise / logic
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    # Comparisons
    LT = "lt"
    GT = "gt"
    LE = "le"
    GE = "ge"
    EQ = "eq"
    NE = "ne"
    # Selection / data movement
    MUX = "mux"
    COPY = "copy"
    CONST = "const"
    # Environment I/O (fixed on their birth edge)
    READ = "read"
    WRITE = "write"

    def __str__(self):  # pragma: no cover - cosmetic
        return self.value


#: Operation kinds whose operands can be swapped freely.
COMMUTATIVE_KINDS = frozenset(
    {OpKind.ADD, OpKind.MUL, OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.EQ, OpKind.NE}
)

#: Comparison kinds (single-bit result).
COMPARISON_KINDS = frozenset(
    {OpKind.LT, OpKind.GT, OpKind.LE, OpKind.GE, OpKind.EQ, OpKind.NE}
)

#: Environment I/O kinds.
IO_KINDS = frozenset({OpKind.READ, OpKind.WRITE})

#: Kinds that never occupy a functional unit (zero hardware cost by
#: themselves; constants are folded into operand logic, copies become wires).
FREE_KINDS = frozenset({OpKind.CONST, OpKind.COPY})


def is_io(kind: OpKind) -> bool:
    """Return True for port read/write operations."""
    return kind in IO_KINDS


def is_fixed_kind(kind: OpKind) -> bool:
    """Return True for kinds that are pinned to their birth edge.

    Only I/O operations are inherently fixed; anything else may move inside
    its opSpan.
    """
    return kind in IO_KINDS


def is_synthesizable(kind: OpKind) -> bool:
    """Return True if the kind consumes a functional-unit resource."""
    return kind not in FREE_KINDS and kind not in IO_KINDS


_NEXT_OP_ID = 0


def _allocate_op_id() -> int:
    global _NEXT_OP_ID
    _NEXT_OP_ID += 1
    return _NEXT_OP_ID


@dataclass
class Operation:
    """A DFG vertex.

    Parameters
    ----------
    name:
        Unique (per DFG) human-readable identifier, e.g. ``"mul_3"``.
    kind:
        The :class:`OpKind` of the operation.
    width:
        Result bit width.
    operand_widths:
        Bit widths of the inputs, in operand order.  Comparisons have a
        1-bit result but full-width operands.
    birth_edge:
        Name of the CFG edge the operation originates from in the source
        code (the ``birth`` mapping of the paper).
    fixed:
        If True the operation may only be scheduled on its birth edge.
        I/O operations are always fixed.
    value:
        Constant value for ``CONST`` operations (ignored otherwise).
    attrs:
        Free-form annotations (source line, variable name, ...).
    """

    name: str
    kind: OpKind
    width: int = 32
    operand_widths: Tuple[int, ...] = ()
    birth_edge: Optional[str] = None
    fixed: bool = False
    value: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    uid: int = field(default_factory=_allocate_op_id)

    def __post_init__(self):
        if self.kind in IO_KINDS:
            self.fixed = True
        if not self.operand_widths and self.kind not in (OpKind.CONST, OpKind.READ):
            # A sensible default: operands as wide as the result.
            self.operand_widths = (self.width, self.width)
        if self.kind in COMPARISON_KINDS:
            # Comparison results are single-bit regardless of operand width.
            self.width = 1

    # -- classification helpers -------------------------------------------------

    @property
    def is_io(self) -> bool:
        return is_io(self.kind)

    @property
    def is_fixed(self) -> bool:
        return self.fixed or is_fixed_kind(self.kind)

    @property
    def is_synthesizable(self) -> bool:
        """True if the operation occupies a functional unit."""
        return is_synthesizable(self.kind)

    @property
    def max_operand_width(self) -> int:
        if not self.operand_widths:
            return self.width
        return max(self.operand_widths)

    def __hash__(self):
        return hash(self.uid)

    def __eq__(self, other):
        if not isinstance(other, Operation):
            return NotImplemented
        return self.uid == other.uid

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Operation({self.name}, {self.kind.value}, w={self.width})"
