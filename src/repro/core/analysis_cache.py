"""Keyed, bounded caches for the per-design analyses.

The flows and the sweep sessions recompute the same pure analyses over and over:

* **point artifacts** — :class:`~repro.core.latency.LatencyAnalysis`,
  :class:`~repro.core.opspan.OperationSpans` and the timed DFG depend only on
  the design's structure, not on the clock period or the pipelining, so an
  engine sweep that revisits one design at several clock periods (or runs
  both flows on it) can share them across points;
* **pinned spans / timed DFGs** — the slack-guided scheduler rebuilds
  ``OperationSpans(pinned=..., not_before=...)`` plus a timed DFG after every
  scheduled edge, and its outer relaxation loop replays the same schedule
  prefixes attempt after attempt (on relaxation-heavy design points >80 % of
  these rebuilds are exact repeats);
* **sequential slack** — budgeting calls
  :func:`~repro.core.sequential_slack.compute_sequential_slack` with delay
  maps that recur across re-budgeting passes.

:class:`AnalysisCache` memoizes all three behind explicit keys.  Every key
starts from :func:`design_fingerprint`, a structural hash of the CFG + DFG
(including insertion order, which scheduling tie-breaks observe), so designs
rebuilt by a factory hit the cache even though they are distinct objects.

Correctness: every cached value is a pure function of its key, and every
consumer treats the shared objects as immutable, so results with the cache
are bit-for-bit identical to results without it (the flows' golden-metrics
benchmark guards this).  The fingerprint is stamped on the design object
behind an O(1) shape guard: structural growth or shrinkage after first use
is detected and re-hashed, but in-place edits that keep every node/edge
count unchanged are not — run the IR transforms before handing a design to
a flow and avoid such edits afterwards.

Memory: each table is a bounded LRU; :meth:`AnalysisCache.cache_info`
exposes hits/misses/evictions and :meth:`AnalysisCache.clear` empties all
tables.  The module-level :func:`default_cache` instance is shared by the
flows and the engine within one process (each process-pool worker gets its
own copy, which is what lets a worker amortize analyses across the points it
evaluates).
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import OrderedDict
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans
from repro.core.sequential_slack import TimingResult, compute_sequential_slack
from repro.core.timed_dfg import TimedDFG, build_timed_dfg

_FINGERPRINT_ATTR = "_repro_structural_fingerprint"
_TOKEN_ATTR = "_repro_cache_token"
_token_counter = itertools.count()


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
    escape the guard — avoid those after first use, or run the IR
    transforms before handing a design to a flow (see the module
    docstring).
    """
    cfg, dfg = design.cfg, design.dfg
    shape = (cfg.num_nodes, cfg.num_edges, dfg.num_operations, dfg.num_edges)
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
    """Keyed caches for point artifacts, pinned spans/timed DFGs and slack.

    Parameters bound the LRU tables (entries, not bytes).  The defaults are
    sized for long engine sweeps: spans dominate per-entry memory, and one
    relaxation-heavy design point replays up to a few thousand distinct
    pinned-span keys across its relaxation attempts, so 4096 entries keep a
    whole sweep's working set resident (the Table-4 sweep was eviction-bound
    at smaller sizes) without letting an unbounded sweep grow the process.
    """

    def __init__(self, max_artifacts: int = 64, max_spans: int = 4096,
                 max_slack: int = 4096):
        self._artifacts = _LRUTable("artifacts", max_artifacts)
        self._spans = _LRUTable("spans", max_spans)
        self._slack = _LRUTable("sequential_slack", max_slack)
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

    # -- pinned spans + timed DFG --------------------------------------------------

    def pinned_spans_and_timed(
        self,
        design,
        latency: LatencyAnalysis,
        pinned: Mapping[str, str],
        not_before: Optional[str],
    ) -> Tuple[OperationSpans, TimedDFG]:
        """Spans pinned to a partial schedule, plus their timed DFG.

        This is the slack-guided scheduler's per-edge rebuild.  Keyed by the
        design fingerprint and the exact ``(pinned, not_before)`` pair; the
        relaxation loop replays schedule prefixes, so hit rates are high on
        exactly the design points where scheduling is slow.  ``latency`` must
        be the design's canonical analysis (it only depends on the CFG, which
        the fingerprint covers).
        """
        key = (design_fingerprint(design),
               tuple(sorted(pinned.items())),
               not_before)

        def build():
            spans = OperationSpans(design, latency=latency, pinned=pinned,
                                   not_before=not_before)
            timed = build_timed_dfg(design, spans=spans, latency=latency)
            return spans, timed

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

    # -- delta-slack stats ---------------------------------------------------------

    def record_delta(self, updates: int) -> None:
        """Record one :class:`~repro.core.delta_slack.DeltaSlackEvaluator`
        run and how many incremental updates it absorbed (each of which
        replaced a full slack recomputation).  Feeds the sweep-session stats.
        """
        with self._delta_lock:
            self.delta_evaluators += 1
            self.delta_updates += updates

    # -- management ----------------------------------------------------------------

    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/eviction/size counters of every table."""
        return {
            table.name: table.info()
            for table in (self._artifacts, self._spans, self._slack)
        }

    def clear(self) -> None:
        """Drop every cached entry (counters are kept)."""
        for table in (self._artifacts, self._spans, self._slack):
            table.clear()


_default_cache = AnalysisCache()


def default_cache() -> AnalysisCache:
    """The process-wide cache shared by the flows and the sweep sessions."""
    return _default_cache
