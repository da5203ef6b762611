"""Operation spans (paper Section IV, Definition 4).

The *opSpan* of an operation is the topologically ordered set of CFG edges it
may legally be scheduled on.  Its first element is the *early* edge, its last
the *late* edge.  The rules implemented here (and spelled out in DESIGN.md)
are:

* Fixed operations (port I/O, or anything marked ``fixed``) may only be
  scheduled on their birth edge.
* An operation may be *hoisted* above a branch (speculation) — to an edge
  that dominates its birth edge — or *sunk* below a join — to an edge that
  post-dominates its birth edge — but never moved sideways into a different
  branch.
* The early edge is the first control-compatible edge reachable from the
  early edge of every (non-constant) data predecessor.
* The late edge is the last control-compatible edge from which the late edge
  of every data successor is still reachable.  With
  ``strict_io_successors=True`` reachability is strict when the successor is
  a fixed I/O operation (the operation's result must be registered before
  the protocol-fixed cycle instead of chaining combinationally into it).
* Operations flagged ``branch_condition`` resolve a CFG branch and therefore
  cannot be postponed past their birth edge.

The paper is not fully self-consistent about chaining into fixed I/O
operations: its Fig. 2 schedules chain the final addition into the state of
the output write, while its Table 3 requires ``late(mux) = e6`` (one state
before the write).  Both behaviours are supported; the default
(``strict_io_successors=False``) matches the scheduling figures and the
flows, while the strict setting reproduces every Table 3 recurrence
verbatim (see ``tests/test_table3_closed_forms.py``).  Early edges —
``span(div)`` starting at ``e1``, ``early(mul) = e5``, ``early(mux) = e6``,
``span(wr) = {e7}`` — are reproduced in both modes.

**The bitset kernel.**  Spans are computed on bitmasks over the forward CFG
edges: bit ``i`` stands for the edge at topological position ``i``
(:meth:`LatencyAnalysis.edge_order`; back edges have no bit).  With the
tables of :class:`repro.core.latency.EdgeBitsets` — ``reach(e)``, the
edges reachable from ``e`` including ``e``, and ``co-reach(e)``, the edges
from which ``e`` is reachable — and the candidate mask of the birth edge
(its control-compatible edges), an operation that is neither pinned nor
fixed gets::

    early = lowest bit of  candidates & floor & AND reach(early(p))
    late  = highest bit of candidates & reach(early) & AND co-reach(late(s))
    edges = the bits of    candidates & reach(early) & co-reach(late)

over its non-constant predecessors ``p`` and its successors ``s``; the
floor holds the edges at or after ``not_before``, and a fixed successor
contributes its co-reach without its own edge in strict mode.  A pinned
operation's early and late edges are its pinned edge, a fixed
operation's are its birth edge, and a branch condition's late edge is its
birth edge; the ``edges`` rule holds for every operation that is not
pinned.  An empty early mask is infeasible, an empty late mask means
``late = early``, and an empty edge mask (or a pin) gives ``(early,)``.
This is exact: bit order is topological order, the order in which the
candidate edges are scanned, so "the first candidate that passes every
predecessor test" is the lowest set bit of the AND of those tests and "the
last one that passes every successor test" the highest; and a reach set
contains its own edge, so the non-strict tests need no special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import TimingError
from repro.ir.design import Design
from repro.ir.operations import OpKind
from repro.core.latency import LatencyAnalysis


@dataclass(frozen=True)
class SpanInfo:
    """The opSpan of one operation."""

    op: str
    early: str
    late: str
    edges: tuple

    @property
    def is_fixed(self) -> bool:
        """True when the operation has a single legal edge."""
        return len(self.edges) == 1

    def __contains__(self, edge_name: str) -> bool:
        return edge_name in self.edges

    def __len__(self) -> int:
        return len(self.edges)


class _SpanTemplate:
    """Interned pinned-independent skeleton of the span computation.

    The slack-guided scheduler rebuilds ``OperationSpans(pinned=...)`` after
    every scheduled edge, but the DFG topological order and the
    per-operation records only depend on the design and its latency
    analysis, so they are resolved once here and shared by every pinned
    rebuild.  ``records`` holds, in topological order, ``(index, name,
    birth, candidates, early_fixed, late_fixed, preds, succs,
    fixed_succs)``: the candidate mask of the birth edge, and the
    topological indices of the non-constant predecessors, of the
    successors that are not fixed and of the fixed ones.

    ``interned`` maps ``(op, early, late)`` to the operation's
    :class:`SpanInfo`: the edge tuple of an unpinned operation is a pure
    function of its birth, early and late edges, and a pinned operation's
    ``(edge, edge, (edge,))`` is the same value, so every rebuild reuses
    the tuples an earlier one assembled.

    Templates are interned per ``(design, latency)`` by the process-wide
    :meth:`repro.core.analysis_cache.AnalysisCache.span_template`.
    """

    __slots__ = ("order", "index", "records", "interned")

    def __init__(self, design: Design, latency: LatencyAnalysis):
        dfg = design.dfg
        cfg = design.cfg
        self.order: List[str] = dfg.topological_order()
        self.index = {name: index for index, name in enumerate(self.order)}
        self.records: List[tuple] = []
        self.interned: Dict[Tuple[str, str, str], SpanInfo] = {}
        for index, name in enumerate(self.order):
            op = dfg.op(name)
            birth = op.birth_edge
            if birth is None:
                raise TimingError(f"operation {name!r} has no birth edge")
            if not cfg.has_edge(birth):
                raise TimingError(
                    f"operation {name!r} born on unknown edge {birth!r}"
                )
            preds = tuple(
                self.index[pred] for pred in dfg.predecessors(name)
                if dfg.op(pred).kind is not OpKind.CONST
            )
            succs = [(self.index[succ], dfg.op(succ).is_fixed)
                     for succ in dfg.successors(name)]
            late_fixed = op.is_fixed or bool(op.attrs.get("branch_condition"))
            self.records.append((
                index, name, birth, latency.candidate_mask(birth), op.is_fixed,
                late_fixed, preds,
                tuple(succ for succ, fixed in succs if not fixed),
                tuple(succ for succ, fixed in succs if fixed),
            ))


class OperationSpans:
    """Computes and stores the opSpan of every operation of a design.

    Parameters
    ----------
    design:
        The design to analyse.
    latency:
        Optional pre-built :class:`LatencyAnalysis` (shared across passes).
    pinned:
        Optional mapping ``op name -> CFG edge`` of operations already
        scheduled; their span collapses to that single edge.  Used by the
        slack-guided scheduler when it recomputes spans after every edge.
    not_before:
        Optional CFG edge name; unscheduled operations may not be placed on
        edges that precede it in topological order (the scheduler has already
        passed those edges).
    strict_io_successors:
        When True, an operation feeding a fixed I/O operation must complete
        in an earlier state (no combinational chaining into the I/O edge).
    """

    def __init__(
        self,
        design: Design,
        latency: Optional[LatencyAnalysis] = None,
        pinned: Optional[Dict[str, str]] = None,
        not_before: Optional[str] = None,
        strict_io_successors: bool = False,
    ):
        self.design = design
        self.latency = latency or LatencyAnalysis(design.cfg)
        self.strict_io_successors = strict_io_successors
        self._pinned = dict(pinned or {})
        self._not_before_pos = (
            self.latency.edge_order(not_before) if not_before is not None else None
        )
        from repro.core.analysis_cache import default_cache

        self._template = default_cache().span_template(design, self.latency)
        self._spans: Dict[str, SpanInfo] = self._compute()

    # -- computation -------------------------------------------------------------

    def _compute(self) -> Dict[str, SpanInfo]:
        bits = self.latency.edge_bitsets()
        names, reach, coreach = bits.names, bits.reach, bits.coreach
        fixed_coreach = (bits.strict_coreach if self.strict_io_successors
                         else coreach)
        pinned = self._pinned
        template = self._template
        interned = template.interned
        floor = (-1 if self._not_before_pos is None
                 else -(1 << self._not_before_pos))
        count = len(template.order)
        early: List[str] = [""] * count
        early_reach: List[int] = [0] * count
        late_coreach: List[int] = [0] * count
        late_fixed_coreach: List[int] = [0] * count
        infos: List[SpanInfo] = [None] * count

        # Pinned operations: early = late = the pinned edge.
        for name, edge in pinned.items():
            index = template.index.get(name)
            if index is None or edge is None:
                continue
            early_reach[index] = reach[edge]
            late_coreach[index] = coreach[edge]
            late_fixed_coreach[index] = fixed_coreach[edge]
            key = (name, edge, edge)
            info = interned.get(key)
            if info is None:
                info = interned[key] = SpanInfo(op=name, early=edge, late=edge,
                                                edges=(edge,))
            infos[index] = info

        # The free operations' early edges, in topological order (see the
        # module docstring for the three mask formulas).
        free = (template.records if not pinned else
                [record for record in template.records
                 if pinned.get(record[1]) is None])
        for (index, name, birth, candidates, early_fixed, _, preds, _,
             _) in free:
            if early_fixed:
                edge = birth
            else:
                mask = candidates & floor
                for pred in preds:
                    mask &= early_reach[pred]
                if not mask:
                    raise TimingError(
                        f"operation {name!r} has no feasible early edge "
                        f"(birth {birth!r}); the design is structurally "
                        f"infeasible"
                    )
                edge = names[(mask & -mask).bit_length() - 1]
            early[index] = edge
            early_reach[index] = reach[edge]

        # Their late edges and span edges, in reverse topological order.
        for (index, name, birth, candidates, _, late_fixed, _, succs,
             fixed_succs) in reversed(free):
            first = early[index]
            if late_fixed:
                edge = birth
            else:
                mask = candidates & early_reach[index]
                for succ in succs:
                    mask &= late_coreach[succ]
                for succ in fixed_succs:
                    mask &= late_fixed_coreach[succ]
                edge = names[mask.bit_length() - 1] if mask else first
            late_coreach[index] = coreach[edge]
            late_fixed_coreach[index] = fixed_coreach[edge]
            key = (name, first, edge)
            info = interned.get(key)
            if info is None:
                mask = candidates & early_reach[index] & late_coreach[index]
                edges = []
                while mask:
                    low = mask & -mask
                    edges.append(names[low.bit_length() - 1])
                    mask ^= low
                info = interned[key] = SpanInfo(
                    op=name, early=first, late=edge,
                    edges=tuple(edges) or (first,))
            infos[index] = info
        return dict(zip(template.order, infos))

    # -- queries --------------------------------------------------------------------

    def span(self, op_name: str) -> SpanInfo:
        try:
            return self._spans[op_name]
        except KeyError:
            raise TimingError(f"no span computed for operation {op_name!r}") from None

    def early(self, op_name: str) -> str:
        return self.span(op_name).early

    def late(self, op_name: str) -> str:
        return self.span(op_name).late

    def edges(self, op_name: str) -> List[str]:
        return list(self.span(op_name).edges)

    def all_spans(self) -> Dict[str, SpanInfo]:
        return dict(self._spans)

    def mobility(self, op_name: str) -> int:
        """Number of states the operation can move across (span latency)."""
        info = self.span(op_name)
        value = self.latency.latency(info.early, info.late)
        return 0 if value is None else value

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"OperationSpans({len(self._spans)} operations)"
