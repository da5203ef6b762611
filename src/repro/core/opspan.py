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
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import TimingError
from repro.ir.design import Design
from repro.ir.operations import Operation, OpKind
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
    every scheduled edge, but the DFG topological order, the per-operation
    birth/fixedness/predecessor/successor records and the control-compatible
    candidate-edge lists only depend on the design and its latency analysis —
    so they are resolved once here and shared by every pinned rebuild.

    ``interned`` maps ``(op, early, late)`` to the operation's
    :class:`SpanInfo`: the edge tuple of an unpinned operation is a pure
    function of its birth, early and late edges, and a pinned operation's
    ``(edge, edge, (edge,))`` is the same value, so every rebuild reuses
    the tuples an earlier one assembled.
    """

    __slots__ = ("shape", "order", "records", "nofloor", "interned")

    def __init__(self, design: Design, latency: LatencyAnalysis):
        dfg = design.dfg
        cfg = design.cfg
        self.shape = (cfg.num_nodes, cfg.num_edges,
                      dfg.num_operations, dfg.num_edges)
        self.order: List[str] = dfg.topological_order()
        # name -> (op, birth, early_fixed, late_fixed, pred_names, succ_infos)
        self.records: Dict[str, tuple] = {}
        # birth edge -> control-compatible forward edges in topological order
        # (no not_before floor applied).
        self.nofloor: Dict[str, List[str]] = {}
        self.interned: Dict[Tuple[str, str, str], SpanInfo] = {}
        ordered_edges = latency._forward_edges_ordered()
        compatible = latency.control_compatible
        for name in self.order:
            op = dfg.op(name)
            birth = op.birth_edge
            if birth is None:
                raise TimingError(f"operation {name!r} has no birth edge")
            if not cfg.has_edge(birth):
                raise TimingError(
                    f"operation {name!r} born on unknown edge {birth!r}"
                )
            if birth not in self.nofloor:
                self.nofloor[birth] = [
                    edge for edge in ordered_edges if compatible(edge, birth)
                ]
            preds = tuple(
                pred_name for pred_name in dfg.predecessors(name)
                if dfg.op(pred_name).kind is not OpKind.CONST
            )
            succs = tuple(
                (succ_name, dfg.op(succ_name).is_fixed)
                for succ_name in dfg.successors(name)
            )
            late_fixed = op.is_fixed or bool(op.attrs.get("branch_condition"))
            self.records[name] = (op, birth, op.is_fixed, late_fixed,
                                  preds, succs)


_SPAN_TEMPLATE_LOCK = threading.Lock()
_SPAN_TEMPLATES: "OrderedDict" = OrderedDict()
_MAX_SPAN_TEMPLATES = 128


def _span_template(design: Design, latency: LatencyAnalysis) -> _SpanTemplate:
    """The interned :class:`_SpanTemplate` of ``(design, latency)``.

    Keyed by object identity tokens with an O(1) shape guard (same contract
    as :func:`repro.core.analysis_cache.design_fingerprint`): structural
    growth or shrinkage after first use is detected and re-interned, but
    count-preserving in-place edits are not — run IR transforms before
    handing a design to the analyses.
    """
    from repro.core.analysis_cache import _object_token

    key = (_object_token(design), _object_token(latency))
    shape = (design.cfg.num_nodes, design.cfg.num_edges,
             design.dfg.num_operations, design.dfg.num_edges)
    with _SPAN_TEMPLATE_LOCK:
        template = _SPAN_TEMPLATES.get(key)
        if template is not None and template.shape == shape:
            _SPAN_TEMPLATES.move_to_end(key)
            return template
    template = _SpanTemplate(design, latency)
    with _SPAN_TEMPLATE_LOCK:
        _SPAN_TEMPLATES[key] = template
        _SPAN_TEMPLATES.move_to_end(key)
        while len(_SPAN_TEMPLATES) > _MAX_SPAN_TEMPLATES:
            _SPAN_TEMPLATES.popitem(last=False)
    return template


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
        self._spans: Dict[str, SpanInfo] = {}
        self._candidate_memo: Dict[Tuple[str, bool], List[str]] = {}
        self._template = _span_template(design, self.latency)
        self._compute()

    # -- computation -------------------------------------------------------------

    def _candidate_edges(self, birth_edge: str, respect_floor: bool) -> List[str]:
        """Control-compatible edges for an op born on ``birth_edge``.

        The floor-free lists come from the interned :class:`_SpanTemplate`;
        only the ``not_before`` filter is per-instance, memoized here.  The
        cached lists are shared; callers must not mutate them.
        """
        key = (birth_edge, respect_floor)
        cached = self._candidate_memo.get(key)
        if cached is not None:
            return cached
        edges = self._template.nofloor.get(birth_edge)
        if edges is None:
            edges = [
                edge for edge in self.latency._forward_edges_ordered()
                if self.latency.control_compatible(edge, birth_edge)
            ]
        if respect_floor and self._not_before_pos is not None:
            floor = self._not_before_pos
            order = self.latency.edge_order
            edges = [edge for edge in edges if order(edge) >= floor]
        self._candidate_memo[key] = edges
        return edges

    def _data_predecessors(self, op: Operation) -> List[Operation]:
        dfg = self.design.dfg
        preds = []
        for name in dfg.predecessors(op.name):
            pred = dfg.op(name)
            if pred.kind is OpKind.CONST:
                continue  # constants do not constrain timing (paper Def. 2 step 2)
            preds.append(pred)
        return preds

    def _data_successors(self, op: Operation) -> List[Operation]:
        dfg = self.design.dfg
        return [dfg.op(name) for name in dfg.successors(op.name)]

    def _compute(self) -> None:
        # The reach sets make every reachability question a set-membership
        # test (each set contains its own source edge, so the non-strict
        # queries need no equality special case).
        reach = self.latency._reach_set
        pinned = self._pinned
        records = self._template.records
        order = self._template.order
        strict_io = self.strict_io_successors
        candidate_edges = self._candidate_edges
        early: Dict[str, str] = {}
        late: Dict[str, str] = {}

        # Forward pass: early edges.
        for name in order:
            _, birth, early_fixed, _, preds, _ = records[name]
            pinned_edge = pinned.get(name)
            if pinned_edge is not None:
                early[name] = pinned_edge
                continue
            if early_fixed:
                early[name] = birth
                continue
            chosen = None
            for edge in candidate_edges(birth, respect_floor=True):
                ok = True
                for pred in preds:
                    if edge not in reach(early[pred]):
                        ok = False
                        break
                if ok:
                    chosen = edge
                    break
            if chosen is None:
                raise TimingError(
                    f"operation {name!r} has no feasible early edge "
                    f"(birth {birth!r}); the design is structurally infeasible"
                )
            early[name] = chosen

        # Backward pass: late edges.
        for name in reversed(order):
            _, birth, _, late_fixed, _, succs = records[name]
            pinned_edge = pinned.get(name)
            if pinned_edge is not None:
                late[name] = pinned_edge
                continue
            if late_fixed:
                late[name] = birth
                continue
            early_reach = reach(early[name])
            chosen = None
            for edge in reversed(candidate_edges(birth, respect_floor=False)):
                if edge not in early_reach:
                    continue
                ok = True
                for succ_name, succ_fixed in succs:
                    succ_late = late[succ_name]
                    if succ_fixed and strict_io:
                        if edge == succ_late or succ_late not in reach(edge):
                            ok = False
                            break
                    elif succ_late not in reach(edge):
                        ok = False
                        break
                if ok:
                    chosen = edge
                    break
            if chosen is None:
                # Fall back to the early edge: the operation has no mobility.
                chosen = early[name]
            late[name] = chosen

        # Assemble span sets (interned per (op, early, late)).
        spans = self._spans
        interned = self._template.interned
        for name in order:
            early_name = early[name]
            late_name = late[name]
            key = (name, early_name, late_name)
            info = interned.get(key)
            if info is None:
                if pinned.get(name) is not None:
                    edges = (early_name,)
                else:
                    early_reach = reach(early_name)
                    edges = tuple(
                        edge for edge in candidate_edges(records[name][1],
                                                         respect_floor=False)
                        if edge in early_reach and late_name in reach(edge)
                    )
                    if not edges:
                        edges = (early_name,)
                info = interned[key] = SpanInfo(op=name, early=early_name,
                                                late=late_name, edges=edges)
            spans[name] = info

    def _require_birth(self, op: Operation) -> str:
        if op.birth_edge is None:
            raise TimingError(f"operation {op.name!r} has no birth edge")
        if not self.design.cfg.has_edge(op.birth_edge):
            raise TimingError(
                f"operation {op.name!r} born on unknown edge {op.birth_edge!r}"
            )
        return op.birth_edge

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
