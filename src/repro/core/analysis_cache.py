"""The one owner of every process-wide per-design memo.

The flows and the sweep sessions recompute the same pure analyses over and
over.  :class:`AnalysisCache` memoizes them in five bounded tables; each
says below what it buys, measured on the ``table4-rows2-light`` benchmark
workload (the paper's Table-4 IDCT points at rows=2 without D2 and D7) and
by a cache audit that disabled one table at a time on the full rows=2
sweep (CPU time 3.70 s with every table):

* ``artifacts`` — the :class:`~repro.flows.pipeline.PointArtifacts` of a
  design (:class:`~repro.core.latency.LatencyAnalysis`,
  :class:`~repro.core.opspan.OperationSpans` and the timed DFG), keyed by
  structure.  It serves only flows called without artifacts:
  :class:`~repro.flows.sweep.SweepSession` (and with it ``evaluate_point``
  and ``run_dse``) keeps one private bundle per structure and never looks
  this table up, so it hits 0 times on both benchmark workloads;
* ``spans`` — spans pinned to a schedule prefix plus the design's compact
  timed graph reweighted by them, by name
  (:meth:`AnalysisCache.pinned_spans_and_timed`).  The slack-guided
  scheduler recomputes both on one state per schedule pass
  (:class:`repro.core.slack_scheduler._PassState`), so no flow looks it up
  and it buys nothing on either benchmark workload; it stays while the
  benchmark harness wraps the method and reads its hit ratio;
* ``sequential_slack`` — the schedule pass's
  :func:`~repro.core.sequential_slack.compute_sequential_slack` per delay
  map.  It hits 29 of 52 lookups, but the audit's sweep ran no slower
  without it (3.45 s);
* ``budget_templates`` — the per-``(design, library)`` op table
  (:class:`repro.core.budgeting._BudgetTemplate`): every operation's
  resource class, class key, delays and non-constant neighbours, resolved
  once.  Every ``budget_slack`` call on a graph starts from it, every
  slack-guided scheduling run takes it for the re-budget states and
  pass-start delays of all its passes, and every list-scheduling pass, the
  minimal allocation, the relaxation's instance bound and binding read it,
  in both flows: it hits 193 times and misses 13, once per design;
* ``span_templates`` — the pinned-independent skeleton of the span
  computation (:class:`repro.core.opspan._SpanTemplate`) and its interned
  :class:`~repro.core.opspan.SpanInfo` objects, which every span
  computation reuses: ``OperationSpans`` and, once per scheduling run, the
  pass states.  It hits 13 times and misses 6.

The per-graph delta-slack seeds of
:class:`~repro.core.delta_slack.DeltaSlackEvaluator` (``cache_stats()``'s
``delta_seeds``) serve the evaluators built on a shared graph — the
step-0 and pipelined budgets — and each pass state's first re-budget; the
later re-budgets reseed with the kernels.  They hit 7 of 65 lookups.

Keys: the artifacts and spans tables start from :func:`design_fingerprint`,
a structural hash of the CFG + DFG (including insertion order, which
scheduling tie-breaks observe), so designs rebuilt by a factory hit even
though they are distinct objects.  The sequential-slack table and the two
template tables key on identity tokens stamped on the objects
(:func:`_object_token`): the flows treat designs, libraries, latency
analyses and timed DFGs as structurally immutable after first use, and a
:class:`~repro.flows.sweep.SweepSession` interns designs so that later
points of a structure hit.

Correctness: every cached value is a pure function of its key, and every
consumer treats the shared objects as immutable, so results with the cache
are bit-for-bit identical to results without it (the flows' golden-metrics
benchmark guards this).  The fingerprint is stamped on the design object
behind an O(1) shape guard, and both template tables carry the same shape
in their key: structural growth or shrinkage after first use is detected, but
in-place edits that keep every node/edge count unchanged are not — finish
editing a design before handing it to a flow.

Memory: each table is an LRU bounded in entries;
:meth:`AnalysisCache.cache_info` exposes hits/misses/evictions and
:meth:`AnalysisCache.clear` empties every table.  The module-level
:func:`default_cache` instance is the only one the program uses (each
process-pool worker gets its own copy).  No entry point takes a cache:
a memo that lives for one process is a table here, and a memo that lives
for one sweep belongs to the session.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import OrderedDict
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core.graphkit import CompactTimedGraph
from repro.core.opspan import OperationSpans, _SpanTemplate
from repro.core.sequential_slack import TimingResult, compute_sequential_slack
from repro.core.timed_dfg import TimedDFG, timed_edge_weights

_FINGERPRINT_ATTR = "_repro_structural_fingerprint"
_TOKEN_ATTR = "_repro_cache_token"
_token_counter = itertools.count()

#: Table bounds, in entries, not bytes.  One relaxation-heavy design point
#: replays up to a few thousand distinct pinned-span keys across its
#: attempts, so 4096 keep a whole sweep's working set resident (the Table-4
#: sweep was eviction-bound at smaller sizes) without letting an unbounded
#: sweep grow the process.
_MAX_ARTIFACTS = 64
_MAX_SPANS = 4096
_MAX_SLACK = 4096
_MAX_TEMPLATES = 128


def _shape(design) -> Tuple[int, int, int, int]:
    """The O(1) shape guard: CFG node/edge and DFG operation/edge counts."""
    cfg, dfg = design.cfg, design.dfg
    return (cfg.num_nodes, cfg.num_edges, dfg.num_operations, dfg.num_edges)


def design_fingerprint(design) -> str:
    """A structural identity hash of a design's CFG + DFG.

    Captures everything the cached analyses read: CFG nodes (name, kind) and
    edges (name, endpoints) in insertion order, and DFG operations (name,
    kind, widths, birth edge, fixedness, value, attrs) and data edges
    (endpoints, port, backwardness) in insertion order.  The design *name*,
    the clock period, the pipeline II and the free-form design attrs are
    deliberately excluded — none of the cached analyses depend on them, and
    workload builders embed sweep parameters like the initiation interval in
    the name, which would needlessly split structurally identical designs.

    The hash is stamped on the design object together with an O(1) shape
    token (node/edge/operation counts); a later call revalidates the token
    and recomputes the hash when it no longer matches, so adding or removing
    operations, data edges or CFG elements after first use is detected and
    becomes a correct cache miss.  Only *in-place* edits that keep every
    count unchanged (e.g. rewriting an operation's kind on the same object)
    escape the guard — avoid those after first use (see the module
    docstring).
    """
    cfg, dfg = design.cfg, design.dfg
    shape = _shape(design)
    cached = getattr(design, _FINGERPRINT_ATTR, None)
    if cached is not None and cached[0] == shape:
        return cached[1]
    payload = repr((
        [(node.name, str(node.kind)) for node in cfg.nodes],
        [(edge.name, edge.src, edge.dst) for edge in cfg.edges],
        [(op.name, op.kind.value, op.width, op.operand_widths, op.birth_edge,
          op.fixed, op.value, sorted(op.attrs.items(), key=lambda kv: kv[0]))
         for op in dfg.operations],
        [(edge.src, edge.dst, edge.dst_port, edge.backward, edge.distance)
         for edge in dfg.edges],
    ))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    setattr(design, _FINGERPRINT_ATTR, (shape, digest))
    return digest


def _object_token(obj) -> int:
    """A process-unique identity token stamped on ``obj`` (id()-reuse safe)."""
    token = getattr(obj, _TOKEN_ATTR, None)
    if token is None:
        token = next(_token_counter)
        setattr(obj, _TOKEN_ATTR, token)
    return token


class _LRUTable:
    """A small thread-safe LRU memo table with hit/miss/eviction counters."""

    def __init__(self, name: str, maxsize: int):
        self.name = name
        self.maxsize = maxsize
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, key, build: Callable[[], object]):
        with self._lock:
            if key in self._data:
                self.hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self.misses += 1
        # Build outside the lock: concurrent misses may duplicate work but
        # every build is pure, so whichever result lands last is identical.
        value = build()
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._data),
                "maxsize": self.maxsize,
            }


class AnalysisCache:
    """The five memo tables of one process (see the module docstring)."""

    def __init__(self):
        self._artifacts = _LRUTable("artifacts", _MAX_ARTIFACTS)
        self._spans = _LRUTable("spans", _MAX_SPANS)
        self._slack = _LRUTable("sequential_slack", _MAX_SLACK)
        self._budget_templates = _LRUTable("budget_templates", _MAX_TEMPLATES)
        self._span_templates = _LRUTable("span_templates", _MAX_TEMPLATES)
        self._tables = (self._artifacts, self._spans, self._slack,
                        self._budget_templates, self._span_templates)
        self._delta_lock = threading.Lock()
        self.delta_evaluators = 0
        self.delta_updates = 0

    # -- point artifacts -----------------------------------------------------------

    def artifacts(self, design):
        """The shared :class:`repro.flows.pipeline.PointArtifacts` of ``design``.

        Keyed by :func:`design_fingerprint`, so two structurally identical
        designs built by a factory for different sweep points share one
        artifact bundle.  The returned object (and the analyses inside it)
        must be treated as immutable.
        """
        from repro.flows.pipeline import PointArtifacts

        key = design_fingerprint(design)
        return self._artifacts.get_or_build(
            key, lambda: PointArtifacts.build(design))

    # -- pinned spans + timed graph ------------------------------------------------

    def pinned_spans_and_timed(
        self,
        artifacts,
        pinned: Mapping[str, str],
        not_before: Optional[str],
    ) -> Tuple[OperationSpans, CompactTimedGraph]:
        """Spans pinned to a partial schedule, plus their compact timed graph.

        The by-name form of what the slack-guided scheduler's per-edge
        re-budget computes on op indices
        (:class:`repro.core.slack_scheduler._PassState`).  Keyed by the
        design fingerprint and the exact ``(pinned, not_before)`` pair.

        ``artifacts`` is the design's
        :class:`repro.flows.pipeline.PointArtifacts`.  The graph is its
        timed DFG's compact graph reweighted by the pinned spans: equal, in
        structure, weights and topological order, to
        ``build_timed_dfg(design, spans=spans).compact()``, and sharing all
        but the weights with the artifacts' graph, whose weights stay as
        they are.  Both returned objects are shared: treat them as
        immutable.
        """
        key = (design_fingerprint(artifacts.design),
               tuple(sorted(pinned.items())),
               not_before)

        def build():
            spans = OperationSpans(artifacts.design, latency=artifacts.latency,
                                   pinned=pinned, not_before=not_before)
            base = artifacts.timed
            weights = timed_edge_weights(base.edge_pairs(), spans,
                                         artifacts.latency)
            return spans, base.compact().reweighted(weights)

        return self._spans.get_or_build(key, build)

    # -- sequential slack ----------------------------------------------------------

    def sequential_slack(
        self,
        timed: TimedDFG,
        delays: Mapping[str, float],
        clock_period: float,
        aligned: bool = False,
    ) -> TimingResult:
        """Memoized :func:`compute_sequential_slack`.

        Keyed by the identity of the timed DFG (a token stamped on the
        object — timed DFGs are immutable once built) plus the full delay
        map, the clock period and the alignment flag.  The returned
        :class:`TimingResult` is shared: treat it as read-only.
        """
        key = (_object_token(timed),
               tuple(sorted(delays.items())),
               clock_period,
               aligned)
        return self._slack.get_or_build(
            key,
            lambda: compute_sequential_slack(timed, delays, clock_period,
                                             aligned=aligned))

    # -- templates -----------------------------------------------------------------

    def budget_template(self, design, library):
        """The interned op table of ``(design, library)``.

        A :class:`repro.core.budgeting._BudgetTemplate`, keyed by the
        identity tokens of both objects plus the design's shape, so a
        design that grew or shrank after first use gets a new table.  Treat
        it as immutable.
        """
        from repro.core.budgeting import _BudgetTemplate

        key = (_object_token(design), _object_token(library), _shape(design))
        return self._budget_templates.get_or_build(
            key, lambda: _BudgetTemplate(design, library))

    def span_template(self, design, latency) -> _SpanTemplate:
        """The interned span skeleton of ``(design, latency)``.

        Keyed by the identity tokens of both objects plus the design's
        shape, so a design that grew or shrank after first use gets a new
        template.  Treat it as immutable.
        """
        key = (_object_token(design), _object_token(latency), _shape(design))
        return self._span_templates.get_or_build(
            key, lambda: _SpanTemplate(design, latency))

    # -- delta-slack stats ---------------------------------------------------------

    def record_delta(self, updates: int) -> None:
        """Record one :class:`~repro.core.delta_slack.DeltaSlackEvaluator`
        run and how many incremental updates it absorbed (each of which
        replaced a full slack recomputation).  Feeds the ``delta_evaluators``
        / ``delta_updates`` tallies of ``cache_stats()``.
        """
        with self._delta_lock:
            self.delta_evaluators += 1
            self.delta_updates += updates

    # -- management ----------------------------------------------------------------

    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/eviction/size counters of every table."""
        return {table.name: table.info() for table in self._tables}

    def clear(self) -> None:
        """Drop every cached entry (counters are kept)."""
        for table in self._tables:
            table.clear()


_default_cache = AnalysisCache()


def default_cache() -> AnalysisCache:
    """The process-wide cache: the only :class:`AnalysisCache` the program uses."""
    return _default_cache
