"""Incremental sequential-slack evaluation over the compact timed graph.

Slack budgeting (:mod:`repro.core.budgeting`) is a loop of single-variant
moves: upgrade one operation, recompute slack, downgrade one operation,
recompute slack, maybe revert.  Each recomputation used to be a full
two-pass kernel run plus a dict export, even though exactly one delay
changed.  :class:`DeltaSlackEvaluator` generalizes the patch-kernel idea of
:mod:`repro.rtl.incremental_timing` (recompute only what one change touches)
from state timing to the timed-DFG slack computation:

* the **initial** arrival/required vectors come from the full CSR kernels of
  :mod:`repro.core.graphkit` (one pass each);
* a **delay change** of one node recomputes only the dirty region — arrival
  values propagate to successors only while the *effective* (aligned) start
  actually changed bit-for-bit, required values propagate to predecessors
  only while the required time changed — using the verbatim per-edge
  candidate expressions of the full kernels;
* a **trial** (the budgeting step-4 downgrade probe) runs against an undo
  journal, so a rejected move restores the exact previous floats instead of
  recomputing them.

Exactness argument
------------------

The full kernels compute, in topological order, values that depend only on
already-final predecessor (resp. successor) values through pure ``max`` /
``min`` reductions of per-edge candidates.  The delta pass recomputes a
dirty node with the *same* expression over the *same* CSR slice, and a node
whose inputs to that expression are all bitwise unchanged is provably
assigned the same float, so cutting propagation there is lossless.  By
induction over the topological order the vectors after any sequence of
``set_delay`` calls equal a from-scratch kernel run on the final delays,
float for float.  The ``sweep-session`` and ``pipeline-cache`` oracles and
the golden Table-4 metrics all sit on top of this property.

:class:`CyclicSlackEvaluator` serves cyclic (modulo-II) graphs by full
Bellman-Ford recomputation.  Both evaluators answer the same slack queries
through one shared implementation, :class:`_SlackQueries`; only mutation and
trials differ, because journalled delta updates and full recomputation are
different algorithms.
"""

from __future__ import annotations

import math
from heapq import heappush, heappop
from operator import sub
from typing import List, Optional, Set, Tuple

from repro.core.graphkit import (
    ALIGN_EPS,
    CompactTimedGraph,
    arrival_kernel,
    bellman_ford_arrival,
    bellman_ford_required,
    required_kernel,
)
from repro.core.sequential_slack import TimingResult, timing_result_from_kernel
from repro.obs.metrics import counter as _obs_counter
from repro.obs.trace import span as _obs_span

#: Seed-cache telemetry (the caches themselves stay per-graph attributes;
#: these process-wide tallies are what `repro.obs.metrics.cache_stats()`
#: reports).  Observation only — never read back by the evaluator.
_SEED_HITS = _obs_counter("delta_seeds.hits")
_SEED_MISSES = _obs_counter("delta_seeds.misses")
_SEED_INSERTS = _obs_counter("delta_seeds.inserts")

_EPS = 1e-6
_NEG_INF = -float("inf")
_POS_INF = float("inf")

# Undo-journal entry tags (index constants, not an enum, for hot-path speed).
_J_DELAY, _J_ARRIVAL, _J_EFFECTIVE, _J_REQUIRED = 0, 1, 2, 3


class _SlackQueries:
    """The slack queries both evaluators answer from their current vectors.

    Subclasses keep ``arrival``/``required`` current under ``set_delay``
    and reset ``_worst`` whenever they change.  ``diverged`` and
    ``_improving`` keep these class defaults on acyclic graphs, whose
    evaluator never diverges; a diverged cyclic evaluator reports ``-inf``
    worst slack and lists the nodes still improving as critical and
    violating.
    """

    __slots__ = ("graph", "clock_period", "aligned", "delays", "arrival",
                 "required", "_worst", "updates")

    diverged = False
    _improving: frozenset = frozenset()

    def __init__(self, graph: CompactTimedGraph, delays: List[float],
                 clock_period: float, aligned: bool):
        self.graph = graph
        self.clock_period = clock_period
        self.aligned = aligned
        self.delays = list(delays)
        self._worst: Optional[float] = None
        self.updates = 0

    def worst_slack(self) -> float:
        """Minimum slack over operation nodes (+inf for an empty design)."""
        if self.diverged:
            return _NEG_INF
        worst = self._worst
        if worst is None:
            op_values = self.graph.op_values
            worst = self._worst = min(
                map(sub, op_values(self.required), op_values(self.arrival)),
                default=_POS_INF)
        return worst

    def critical_indices(self, margin: float = 0.0) -> List[int]:
        """Operation nodes within ``margin`` of the worst slack, in the same
        (operation insertion) order as ``TimingResult.critical_operations``."""
        if self.diverged:
            improving = self._improving
            return [index for index in self.graph.op_indices
                    if index in improving]
        arrival = self.arrival
        required = self.required
        threshold = self.worst_slack() + abs(margin) + _EPS
        return [index for index in self.graph.op_indices
                if required[index] - arrival[index] <= threshold]

    def violating_indices(self, threshold: float = -_EPS) -> List[int]:
        """Operation nodes with slack below ``threshold``, in insertion
        order."""
        arrival = self.arrival
        required = self.required
        improving = self._improving
        return [index for index in self.graph.op_indices
                if index in improving
                or required[index] - arrival[index] < threshold]

    def export(self) -> TimingResult:
        """The current timing as an operation-keyed :class:`TimingResult`.

        A diverged fixpoint has no consistent arrival/required values on the
        improving nodes, so their slack is pinned to ``-inf`` — downstream
        feasibility checks (``worst_slack() >= -eps``) then classify the II
        as infeasible without special-casing.
        """
        result = timing_result_from_kernel(
            self.graph, self.arrival, self.required, self.delays,
            self.clock_period, self.aligned)
        if self.diverged:
            names = self.graph.names
            for index in self._improving:
                name = names[index]
                if name in result.slack:
                    result.slack[name] = _NEG_INF
        return result


class DeltaSlackEvaluator(_SlackQueries):
    """Maintains arrival/required/slack vectors under single-delay changes.

    The evaluator owns a mutable copy of the delay vector; callers mutate it
    only through :meth:`set_delay`, or replace it with :meth:`reseed`.
    Between mutations every query —
    :meth:`worst_slack`, :meth:`critical_indices`,
    :meth:`violating_indices`, :meth:`export` — answers exactly as a
    fresh :func:`repro.core.sequential_slack.compute_sequential_slack` on
    the current delays would.
    """

    __slots__ = ("effective", "_topo_pos", "_journal")

    def __init__(self, graph: CompactTimedGraph, delays: List[float],
                 clock_period: float, aligned: bool = True):
        super().__init__(graph, delays, clock_period, aligned)
        # Seed cache: budgets on a shared graph (the step-0 budgets of sweep
        # points with one structure and clock) repeat the same (graph,
        # delays, clock, aligned) key — the initial kernel vectors are a
        # pure function of it, so copies of a cached run are bit-identical
        # to a fresh one.
        seeds = graph._delta_seeds
        if seeds is None:
            seeds = graph._delta_seeds = {}
        seed_key = (tuple(self.delays), clock_period, aligned)
        seed = seeds.get(seed_key)
        if seed is None:
            _SEED_MISSES.inc()
            self._run_kernels()
            if len(seeds) < 64:
                seeds[seed_key] = (list(self.arrival), list(self.effective),
                                   list(self.required))
                _SEED_INSERTS.inc()
        else:
            _SEED_HITS.inc()
            base_arrival, base_effective, base_required = seed
            self.arrival = list(base_arrival)
            self.effective = list(base_effective)
            self.required = list(base_required)
        # Topo positions depend only on the structure, so the graph caches
        # them (and shares them with its reweighted copies).
        self._topo_pos = graph.topo_positions()
        self._journal: Optional[list] = None

    def _run_kernels(self) -> None:
        graph = self.graph
        with _obs_span("delta.seed_kernels", nodes=graph.num_nodes):
            self.arrival, self.effective = arrival_kernel(
                graph, self.delays, self.clock_period, aligned=self.aligned)
            self.required = required_kernel(graph, self.delays,
                                            self.clock_period,
                                            aligned=self.aligned)

    def reseed(self, delays: List[float]) -> None:
        """Take ``delays`` (the evaluator owns the list from now on) and
        recompute every vector from scratch with the full kernels.

        For a caller that rewrote the graph's weights in place
        (:meth:`~repro.core.graphkit.CompactTimedGraph.set_weights`): the
        seed cache is bypassed, the update count restarts at 0 and no trial
        may be open.  The vectors are rebound, so lists read before the
        call keep their old values.
        """
        if self._journal is not None:
            raise RuntimeError("cannot reseed during a slack trial")
        self.delays = delays
        self._run_kernels()
        self._worst = None
        self.updates = 0

    # -- mutation ---------------------------------------------------------------

    def set_delay(self, node: int, new_delay: float) -> None:
        """Change one node's delay and repair the dirty slack region."""
        old_delay = self.delays[node]
        if new_delay == old_delay:
            return
        self.updates += 1
        self._worst = None
        journal = self._journal
        if journal is not None:
            journal.append((_J_DELAY, node, old_delay))
        self.delays[node] = new_delay
        self._propagate_arrival(node, journal)
        self._propagate_required(node, journal)

    def _propagate_arrival(self, node: int, journal) -> None:
        graph = self.graph
        delays = self.delays
        arrival = self.arrival
        effective = self.effective
        clock_period = self.clock_period
        topo_pos = self._topo_pos
        pred_indptr, pred_src, pred_weight = graph.pred_view()
        succ_indptr, succ_dst, _ = graph.succ_view()
        floor = math.floor
        eps = ALIGN_EPS
        aligned = self.aligned

        def align(value: float, delay: float) -> float:
            if not aligned or delay <= eps or delay > clock_period + eps:
                return value
            cycle = floor(value / clock_period + eps)
            offset = value - cycle * clock_period
            if offset + delay > clock_period + eps:
                return (cycle + 1) * clock_period
            return value

        # The changed node's own arrival does not depend on its own delay,
        # but its aligned (effective) start does.
        new_eff = align(arrival[node], delays[node])
        if new_eff != effective[node]:
            if journal is not None:
                journal.append((_J_EFFECTIVE, node, effective[node]))
            effective[node] = new_eff
        # Either way, every successor sees a changed (effective + delay)
        # contribution, so all of them are dirty — but a folded node's
        # arrival is never computed (CompactTimedGraph.kernel_order).
        folded = graph.kernel_order()[3]
        heap: List[Tuple[int, int]] = []
        queued = set()
        for slot in range(succ_indptr[node], succ_indptr[node + 1]):
            dst = succ_dst[slot]
            if dst not in queued and not folded[dst]:
                queued.add(dst)
                heappush(heap, (topo_pos[dst], dst))

        while heap:
            _, v = heappop(heap)
            queued.discard(v)
            lo = pred_indptr[v]
            hi = pred_indptr[v + 1]
            if lo == hi:
                value = 0.0
            else:
                value = _NEG_INF
                for slot in range(lo, hi):
                    src = pred_src[slot]
                    candidate = (effective[src] + delays[src]
                                 - clock_period * pred_weight[slot])
                    if candidate > value:
                        value = candidate
            if value != arrival[v]:
                if journal is not None:
                    journal.append((_J_ARRIVAL, v, arrival[v]))
                arrival[v] = value
            new_eff = align(value, delays[v])
            if new_eff != effective[v]:
                if journal is not None:
                    journal.append((_J_EFFECTIVE, v, effective[v]))
                effective[v] = new_eff
                for slot in range(succ_indptr[v], succ_indptr[v + 1]):
                    dst = succ_dst[slot]
                    if dst not in queued and not folded[dst]:
                        queued.add(dst)
                        heappush(heap, (topo_pos[dst], dst))

    def _propagate_required(self, node: int, journal) -> None:
        graph = self.graph
        delays = self.delays
        required = self.required
        clock_period = self.clock_period
        topo_pos = self._topo_pos
        succ_indptr, succ_dst, succ_weight = graph.succ_view()
        pred_indptr, pred_src, _ = graph.pred_view()
        floor = math.floor
        eps = ALIGN_EPS
        aligned = self.aligned

        # The changed node's required time depends on its own delay, so it
        # is the seed of the upstream dirty region.
        heap: List[Tuple[int, int]] = [(-topo_pos[node], node)]
        queued = {node}
        while heap:
            _, v = heappop(heap)
            queued.discard(v)
            delay = delays[v]
            lo = succ_indptr[v]
            hi = succ_indptr[v + 1]
            if lo == hi:
                value = clock_period - delay
            else:
                value = _POS_INF
                for slot in range(lo, hi):
                    candidate = (required[succ_dst[slot]] - delay
                                 + clock_period * succ_weight[slot])
                    if candidate < value:
                        value = candidate
                if aligned and delay > eps and delay <= clock_period + eps:
                    cycle = floor(value / clock_period + eps)
                    offset = value - cycle * clock_period
                    if offset + delay > clock_period + eps:
                        value = (cycle + 1) * clock_period - delay
            if value != required[v]:
                if journal is not None:
                    journal.append((_J_REQUIRED, v, required[v]))
                required[v] = value
                for slot in range(pred_indptr[v], pred_indptr[v + 1]):
                    src = pred_src[slot]
                    if src not in queued:
                        queued.add(src)
                        heappush(heap, (-topo_pos[src], src))

    # -- trials -----------------------------------------------------------------

    def begin_trial(self) -> None:
        """Start journaling mutations so they can be rolled back exactly."""
        if self._journal is not None:
            raise RuntimeError("a slack trial is already open")
        self._journal = []

    def commit(self) -> Set[int]:
        """Accept the trial mutations; returns the nodes whose arrival or
        required time changed, read from the undo journal."""
        journal = self._journal
        if journal is None:
            raise RuntimeError("no slack trial to commit")
        self._journal = None
        return {node for tag, node, _ in journal
                if tag == _J_ARRIVAL or tag == _J_REQUIRED}

    def rollback(self) -> None:
        """Undo every mutation since :meth:`begin_trial`, bit for bit."""
        journal = self._journal
        if journal is None:
            raise RuntimeError("no slack trial to roll back")
        self._journal = None
        self._worst = None
        delays = self.delays
        arrival = self.arrival
        effective = self.effective
        required = self.required
        for tag, node, value in reversed(journal):
            if tag == _J_DELAY:
                delays[node] = value
            elif tag == _J_ARRIVAL:
                arrival[node] = value
            elif tag == _J_EFFECTIVE:
                effective[node] = value
            else:
                required[node] = value


class CyclicSlackEvaluator(_SlackQueries):
    """Slack evaluator for *cyclic* (modulo-II) timed graphs.

    Same interface as :class:`DeltaSlackEvaluator` — in-place ``arrival`` /
    ``required`` lists, :meth:`set_delay`, trial journaling, the query
    methods — so :func:`repro.core.budgeting.budget_slack` runs its loop
    body unchanged on cyclic graphs.  Two deliberate differences:

    * every :meth:`set_delay` is a **full** Bellman-Ford recomputation (the
      dirty-region argument of the delta evaluator needs a topological
      order, which a cyclic graph does not have);
    * an II below the recurrence minimum does not raise: the evaluator marks
      itself *diverged*, reports ``-inf`` worst slack, and lists the nodes
      still improving after the pass budget as the critical/violating set —
      exactly the operations whose upgrade can shrink the recurrence, so
      budgeting's step-3 repair loop steers toward a feasible fixpoint
      instead of aborting.
    """

    __slots__ = ("diverged", "_improving", "_snapshot")

    def __init__(self, graph: CompactTimedGraph, delays: List[float],
                 clock_period: float, aligned: bool = True):
        super().__init__(graph, delays, clock_period, aligned)
        self.arrival = [0.0] * graph.num_nodes
        self.required = [0.0] * graph.num_nodes
        self._snapshot: Optional[tuple] = None
        self._recompute()

    # -- mutation ---------------------------------------------------------------

    def set_delay(self, node: int, new_delay: float) -> None:
        if new_delay == self.delays[node]:
            return
        self.updates += 1
        self.delays[node] = new_delay
        self._recompute()

    def _recompute(self) -> None:
        arrival, improving_arrival = bellman_ford_arrival(
            self.graph, self.delays, self.clock_period, aligned=self.aligned)
        required, improving_required = bellman_ford_required(
            self.graph, self.delays, self.clock_period, aligned=self.aligned)
        # Slice-assign: budgeting holds direct references to these lists.
        self.arrival[:] = arrival
        self.required[:] = required
        self._improving = improving_arrival | improving_required
        self.diverged = bool(self._improving)
        self._worst = None

    # -- trials -----------------------------------------------------------------

    def begin_trial(self) -> None:
        if self._snapshot is not None:
            raise RuntimeError("a slack trial is already open")
        self._snapshot = (list(self.delays), list(self.arrival),
                          list(self.required), self.diverged,
                          self._improving, self._worst)

    def commit(self) -> Set[int]:
        """Accept the trial; returns the nodes whose arrival or required
        time differs from the snapshot."""
        snapshot = self._snapshot
        if snapshot is None:
            raise RuntimeError("no slack trial to commit")
        self._snapshot = None
        _, arrival, required = snapshot[:3]
        return {node for node, (before, after, was, now) in enumerate(
                    zip(arrival, self.arrival, required, self.required))
                if before != after or was != now}

    def rollback(self) -> None:
        snapshot = self._snapshot
        if snapshot is None:
            raise RuntimeError("no slack trial to roll back")
        self._snapshot = None
        delays, arrival, required, diverged, improving, worst = snapshot
        self.delays[:] = delays
        self.arrival[:] = arrival
        self.required[:] = required
        self.diverged = diverged
        self._improving = improving
        self._worst = worst
