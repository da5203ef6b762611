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
from typing import Dict, Iterable, List, Optional, Tuple

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

    The DFG topological order and the per-operation records depend only on
    the design and its latency analysis, so they are resolved once here and
    shared by every span computation on them: each
    :class:`OperationSpans`, and each per-edge re-budget of the
    slack-guided scheduler, which runs :meth:`bounds` on op indices.
    ``records`` holds, in topological order, ``(index, name, birth,
    candidates, early_fixed, late_fixed, preds, succs, fixed_succs)``: the
    candidate mask of the birth edge, and the topological indices of the
    non-constant predecessors, of the successors that are not fixed and of
    the fixed ones.

    ``interned`` maps ``(op, early, late)`` to the operation's
    :class:`SpanInfo` (:meth:`info`): the edge tuple of an unpinned
    operation is a pure function of its birth, early and late edges, and a
    pinned operation's ``(edge, edge, (edge,))`` is the same value, so every
    computation reuses the tuples an earlier one assembled.

    Templates are interned per ``(design, latency)`` by the process-wide
    :meth:`repro.core.analysis_cache.AnalysisCache.span_template`.
    """

    __slots__ = ("order", "index", "records", "interned", "edge_tuples",
                 "bits")

    def __init__(self, design: Design, latency: LatencyAnalysis):
        dfg = design.dfg
        cfg = design.cfg
        self.order: List[str] = dfg.topological_order()
        self.index = {name: index for index, name in enumerate(self.order)}
        self.records: List[tuple] = []
        self.interned: Dict[Tuple[str, str, str], SpanInfo] = {}
        # Edge mask -> its edge names in topological order; far fewer masks
        # than (op, early, late) keys occur.
        self.edge_tuples: Dict[int, tuple] = {}
        self.bits = latency.edge_bitsets()
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

    def layer(self, pinned: Iterable[Tuple[int, str]] = (),
              strict_io_successors: bool = False) -> "_SpanLayer":
        """A :class:`_SpanLayer` with ``pinned``'s ``(index, edge)`` pins."""
        layer = _SpanLayer(self, strict_io_successors)
        layer.pin(pinned)
        return layer

    def bounds(self, layer: "_SpanLayer", free: List[tuple],
               floor: int) -> Tuple[List[str], List[str]]:
        """The early and late edge of every operation, by template index.

        The one implementation of the span rules (see the module
        docstring).  ``layer`` holds the pinned operations, ``free`` is the
        :attr:`records` of all the others in topological order, and
        ``floor`` masks the edges an unpinned operation may start on
        (``-1``: every edge).  Raises :class:`TimingError` when an
        operation has no feasible early edge.
        """
        bits = self.bits
        names, reach, coreach = bits.names, bits.reach, bits.coreach
        fixed_coreach = layer.fixed_coreach
        early = list(layer.early)
        late = list(layer.late)
        early_reach = list(layer.early_reach)
        late_coreach = list(layer.late_coreach)
        late_fixed_coreach = list(layer.late_fixed_coreach)

        # The free operations' early edges, in topological order.
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

        # Their late edges, in reverse topological order.
        for (index, _, birth, candidates, _, late_fixed, _, succs,
             fixed_succs) in reversed(free):
            if late_fixed:
                edge = birth
            else:
                mask = candidates & early_reach[index]
                for succ in succs:
                    mask &= late_coreach[succ]
                for succ in fixed_succs:
                    mask &= late_fixed_coreach[succ]
                edge = names[mask.bit_length() - 1] if mask else early[index]
            late[index] = edge
            late_coreach[index] = coreach[edge]
            late_fixed_coreach[index] = fixed_coreach[edge]
        return early, late

    def info(self, index: int, early: str, late: str,
             pinned: bool = False) -> SpanInfo:
        """The interned :class:`SpanInfo` of the operation at ``index``.

        A pinned operation's span is ``(early,)``; a free one's holds the
        candidate edges between its early and late edges, or ``(early,)``
        when there are none.
        """
        record = self.records[index]
        key = (record[1], early, late)
        info = self.interned.get(key)
        if info is None:
            edges = ()
            if not pinned:
                bits = self.bits
                mask = record[3] & bits.reach[early] & bits.coreach[late]
                edges = self.edge_tuples.get(mask)
                if edges is None:
                    names = []
                    rest = mask
                    while rest:
                        low = rest & -rest
                        names.append(bits.names[low.bit_length() - 1])
                        rest ^= low
                    edges = self.edge_tuples[mask] = tuple(names)
            info = self.interned[key] = SpanInfo(record[1], early, late,
                                                 edges or (early,))
        return info


class _SpanLayer:
    """The pinned operations' entries of the span computation.

    Lists by template index: the early and late edge, the reach mask of the
    early edge and the co-reach masks of the late edge (``late_fixed_coreach``
    is the one a fixed successor sees: strict in strict mode).  Only the
    pinned operations' entries are filled; :meth:`_SpanTemplate.bounds`
    computes the others on copies.  A pin never changes, so a schedule pass
    keeps one layer and adds the operations each edge placed.
    """

    __slots__ = ("reach", "coreach", "fixed_coreach", "early", "late",
                 "early_reach", "late_coreach", "late_fixed_coreach")

    def __init__(self, template: _SpanTemplate, strict_io_successors: bool):
        bits = template.bits
        self.reach = bits.reach
        self.coreach = bits.coreach
        self.fixed_coreach = (bits.strict_coreach if strict_io_successors
                              else bits.coreach)
        count = len(template.order)
        self.early: List[str] = [""] * count
        self.late: List[str] = [""] * count
        self.early_reach: List[int] = [0] * count
        self.late_coreach: List[int] = [0] * count
        self.late_fixed_coreach: List[int] = [0] * count

    def pin(self, pinned: Iterable[Tuple[int, str]]) -> None:
        """Pin each ``(index, edge)``: early = late = the pinned edge."""
        reach, coreach, fixed_coreach = (self.reach, self.coreach,
                                         self.fixed_coreach)
        for index, edge in pinned:
            self.early[index] = self.late[index] = edge
            self.early_reach[index] = reach[edge]
            self.late_coreach[index] = coreach[edge]
            self.late_fixed_coreach[index] = fixed_coreach[edge]


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
        scheduled; their span collapses to that single edge.  With
        ``not_before`` this is the by-name form of the spans the
        slack-guided scheduler recomputes after every edge.
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
        template = self._template
        index_of = template.index
        pinned = [(index_of[name], edge)
                  for name, edge in self._pinned.items()
                  if edge is not None and name in index_of]
        free = (template.records if not pinned else
                [record for record in template.records
                 if self._pinned.get(record[1]) is None])
        floor = (-1 if self._not_before_pos is None
                 else -(1 << self._not_before_pos))
        early, late = template.bounds(
            template.layer(pinned, self.strict_io_successors), free, floor)
        info = template.info
        infos: List[SpanInfo] = [None] * len(template.order)
        for index, edge in pinned:
            infos[index] = info(index, edge, edge, pinned=True)
        for record in free:
            index = record[0]
            infos[index] = info(index, early[index], late[index])
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
