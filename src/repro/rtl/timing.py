"""Per-state static timing analysis of a bound datapath.

After binding, the delay of an operation is the delay of the *instance* it is
bound to (which may be faster than the grade requested by the schedule), plus
the multiplexer delay in front of the instance's inputs.  This module
recomputes the combinational chains inside every control step and reports

* per-state critical path length and slack against the clock period, and
* per-operation within-state slack (the only slack the conventional RTL-style
  area recovery is allowed to use).

The combinational chains of one state never cross into another state (the
forward pass only follows same-edge predecessors, the backward pass only
same-edge successors), so the analysis decomposes exactly per state.

Two implementations of the per-state computation live here:

* :class:`StateTimingKernel` (the default) interns every state's scheduled
  operations once — same-state predecessor/successor index lists, resolved
  delay sources — so re-evaluating a state is a flat pass over small integer
  lists (the :mod:`repro.core.graphkit` treatment applied to the RTL layer).
  :func:`analyze_state_timing` runs it over every state, and
  :class:`repro.rtl.incremental_timing.IncrementalStateTiming` re-runs it
  over only the states an FU-instance variant change touches and splices
  the results into a cached report.  Both paths execute the same kernel, so
  a patched report is bit-for-bit equal to a full recompute.
* :func:`recompute_state` / :func:`analyze_state_timing_reference` are the
  original per-op-name implementations, kept as the executable
  specification: the kernel replays their float operations exactly
  (asserted by the ``graphkit-state-timing`` verify oracle and the test
  suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import TimingError
from repro.ir.operations import OpKind
from repro.rtl.datapath import Datapath

_EPS = 1e-6


@dataclass
class StateTimingReport:
    """Combinational timing of every control step of a datapath."""

    clock_period: float
    state_critical_path: Dict[str, float]      # CFG edge -> longest finish (ps)
    op_start: Dict[str, float]
    op_finish: Dict[str, float]
    op_slack: Dict[str, float]                 # within-state slack per operation

    @property
    def worst_state_slack(self) -> float:
        if not self.state_critical_path:
            return self.clock_period
        return self.clock_period - max(self.state_critical_path.values())

    def meets_timing(self) -> bool:
        return self.worst_state_slack >= -_EPS

    def violations(self) -> List[str]:
        limit = self.clock_period + _EPS
        return [edge for edge, finish in self.state_critical_path.items()
                if finish > limit]


def _effective_delay(datapath: Datapath, op_name: str) -> float:
    """Instance delay + input mux delay for one scheduled operation."""
    design = datapath.design
    library = datapath.library
    op = design.dfg.op(op_name)
    if op.kind is OpKind.CONST:
        return 0.0
    if not op.is_synthesizable:
        return library.operation_delay(op)
    try:
        instance = datapath.binding.instance_of(op_name)
    except Exception:  # unbound (should not happen for complete bindings)
        return library.operation_delay(op, datapath.schedule.variant_of(op_name))
    mux_delay = datapath.interconnect.delay_before(instance.name)
    return instance.variant.delay + mux_delay


def scheduled_ops_by_edge(datapath: Datapath) -> Dict[str, List[str]]:
    """Scheduled operations grouped per CFG edge, in DFG topological order.

    This is the decomposition the per-state kernel operates on; edges appear
    in order of their first scheduled operation in the global topological
    order, and the per-edge lists preserve that order, so iterating the
    groups replays exactly the visit order of a single global pass.
    """
    schedule = datapath.schedule
    groups: Dict[str, List[str]] = {}
    for name in datapath.design.dfg.topological_order():
        if not schedule.is_scheduled(name):
            continue
        groups.setdefault(schedule.edge_of(name), []).append(name)
    return groups


def recompute_state(
    datapath: Datapath,
    edge_ops: List[str],
    usable_period: float,
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float], float]:
    """Recompute the combinational chains of one state.

    ``edge_ops`` must be the scheduled operations of a single CFG edge in DFG
    topological order (see :func:`scheduled_ops_by_edge`); ``usable_period``
    is the clock period (see :func:`usable_clock_period`).  Returns
    ``(op_start, op_finish, op_slack, critical_path)`` for exactly those
    operations.  Chains never leave a state, so the result is independent of
    every other state — the property the incremental patching relies on.
    """
    design = datapath.design
    schedule = datapath.schedule
    dfg = design.dfg

    op_start: Dict[str, float] = {}
    op_finish: Dict[str, float] = {}
    critical = 0.0
    edge_name = schedule.edge_of(edge_ops[0]) if edge_ops else None

    for name in edge_ops:
        delay = _effective_delay(datapath, name)
        start = 0.0
        for pred in dfg.predecessors(name):
            if not schedule.is_scheduled(pred):
                continue
            if schedule.edge_of(pred) == edge_name:
                start = max(start, op_finish.get(pred, 0.0))
        finish = start + delay
        op_start[name] = start
        op_finish[name] = finish
        critical = max(critical, finish)

    # Backward pass: latest start within the state so every downstream
    # same-state consumer still meets the clock period.
    latest_start: Dict[str, float] = {}
    for name in reversed(edge_ops):
        delay = op_finish[name] - op_start[name]
        allowed_finish = usable_period
        for succ in dfg.successors(name):
            if succ in latest_start and schedule.edge_of(succ) == edge_name:
                allowed_finish = min(allowed_finish, latest_start[succ])
        latest_start[name] = allowed_finish - delay

    op_slack = {name: latest_start[name] - op_start[name] for name in edge_ops}
    return op_start, op_finish, op_slack, critical


def usable_clock_period(datapath: Datapath) -> float:
    """The clock period combinational logic may use; it must be positive."""
    if datapath.clock_period <= 0:
        raise TimingError("clock period must be positive")
    return datapath.clock_period


class StateTimingKernel:
    """Interned per-state timing evaluator for one datapath.

    Built once per datapath: every state's scheduled operations are mapped
    to dense positions, same-state predecessor/successor relations become
    small integer lists, and each operation's delay source is resolved to
    either a static float (constants, I/O, unbound fallbacks — all fixed for
    the datapath's lifetime) or its bound instance (the variant delay is
    read live, because area recovery retunes variants; the input mux delay
    comes from the datapath's interconnect estimate, which reads the binding
    and the registers but no grade, so area recovery leaves it unchanged).

    The schedule and the binding structure must not change for the lifetime
    of a kernel — the same contract as
    :class:`repro.rtl.incremental_timing.IncrementalStateTiming`, which runs
    on one.  :meth:`state` replays the float operations of
    :func:`recompute_state` exactly, so kernel results are bit-for-bit equal
    to the reference (and identical between full and patched evaluations).
    """

    def __init__(self, datapath: Datapath):
        self.datapath = datapath
        self.usable_period = usable_clock_period(datapath)
        self._groups: Dict[str, List[str]] = scheduled_ops_by_edge(datapath)
        #: edge -> (ops, static_delays, instances, pred_positions, succ_positions)
        self._interned: Dict[str, tuple] = {}
        design = datapath.design
        dfg = design.dfg
        library = datapath.library
        schedule = datapath.schedule
        binding = datapath.binding
        for edge, edge_ops in self._groups.items():
            position_of = {name: index for index, name in enumerate(edge_ops)}
            static_delays: List[Optional[float]] = []
            instances: List[Optional[object]] = []
            pred_positions: List[List[int]] = []
            succ_positions: List[List[int]] = []
            for name in edge_ops:
                op = dfg.op(name)
                if op.kind is OpKind.CONST:
                    static_delays.append(0.0)
                    instances.append(None)
                elif not op.is_synthesizable:
                    static_delays.append(library.operation_delay(op))
                    instances.append(None)
                else:
                    try:
                        instance = binding.instance_of(name)
                    except Exception:  # unbound; the fallback delay is fixed
                        static_delays.append(library.operation_delay(
                            op, schedule.variant_of(name)))
                        instances.append(None)
                    else:
                        static_delays.append(None)
                        instances.append(instance)
                pred_positions.append(sorted(
                    position_of[pred] for pred in dfg.predecessors(name)
                    if pred in position_of))
                succ_positions.append(sorted(
                    position_of[succ] for succ in dfg.successors(name)
                    if succ in position_of))
            self._interned[edge] = (edge_ops, static_delays, instances,
                                    pred_positions, succ_positions)

    # -- queries --------------------------------------------------------------------

    @property
    def edges(self) -> List[str]:
        """States with scheduled operations, in first-scheduled order."""
        return list(self._groups)

    def ops_of(self, edge: str) -> List[str]:
        """Scheduled operations of ``edge`` (shared list — do not mutate)."""
        try:
            return self._groups[edge]
        except KeyError:
            raise TimingError(
                f"no scheduled operations on CFG edge {edge!r}") from None

    def state(self, edge: str) -> Tuple[Dict[str, float], Dict[str, float],
                                        Dict[str, float], float]:
        """Evaluate one state; returns ``(op_start, op_finish, op_slack,
        critical_path)`` exactly like :func:`recompute_state`."""
        try:
            ops, static_delays, instances, pred_positions, succ_positions = \
                self._interned[edge]
        except KeyError:
            raise TimingError(
                f"no scheduled operations on CFG edge {edge!r}") from None
        interconnect = self.datapath.interconnect
        delay_before = interconnect.delay_before
        count = len(ops)

        delays = [0.0] * count
        for index in range(count):
            static = static_delays[index]
            if static is not None:
                delays[index] = static
            else:
                instance = instances[index]
                delays[index] = instance.variant.delay + \
                    delay_before(instance.name)

        starts = [0.0] * count
        finishes = [0.0] * count
        critical = 0.0
        for index in range(count):
            start = 0.0
            for pred in pred_positions[index]:
                finish = finishes[pred]
                if finish > start:
                    start = finish
            finish = start + delays[index]
            starts[index] = start
            finishes[index] = finish
            if finish > critical:
                critical = finish

        usable = self.usable_period
        latest = [0.0] * count
        for index in range(count - 1, -1, -1):
            delay = finishes[index] - starts[index]
            allowed_finish = usable
            for succ in succ_positions[index]:
                candidate = latest[succ]
                if candidate < allowed_finish:
                    allowed_finish = candidate
            latest[index] = allowed_finish - delay

        op_start = dict(zip(ops, starts))
        op_finish = dict(zip(ops, finishes))
        op_slack = {name: latest[index] - starts[index]
                    for index, name in enumerate(ops)}
        return op_start, op_finish, op_slack, critical

    def full_report(self) -> StateTimingReport:
        """Evaluate every state into a fresh :class:`StateTimingReport`."""
        op_start: Dict[str, float] = {}
        op_finish: Dict[str, float] = {}
        op_slack: Dict[str, float] = {}
        state_critical: Dict[str, float] = {}
        for edge in self._groups:
            starts, finishes, slacks, critical = self.state(edge)
            op_start.update(starts)
            op_finish.update(finishes)
            op_slack.update(slacks)
            state_critical[edge] = critical
        return StateTimingReport(
            clock_period=self.datapath.clock_period,
            state_critical_path=state_critical,
            op_start=op_start,
            op_finish=op_finish,
            op_slack=op_slack,
        )


def analyze_state_timing(datapath: Datapath) -> StateTimingReport:
    """Recompute within-state chains using bound-instance delays.

    Register setup and clock-to-q overhead are not modelled, as in the
    paper's illustrative examples.  Runs on a fresh
    :class:`StateTimingKernel`; bit-for-bit equal to
    :func:`analyze_state_timing_reference`.
    """
    return StateTimingKernel(datapath).full_report()


def analyze_state_timing_reference(datapath: Datapath) -> StateTimingReport:
    """The original full recompute via :func:`recompute_state`, kept as the
    executable specification of the interned kernel."""
    usable = usable_clock_period(datapath)

    op_start: Dict[str, float] = {}
    op_finish: Dict[str, float] = {}
    op_slack: Dict[str, float] = {}
    state_critical: Dict[str, float] = {}

    for edge, edge_ops in scheduled_ops_by_edge(datapath).items():
        starts, finishes, slacks, critical = recompute_state(
            datapath, edge_ops, usable)
        op_start.update(starts)
        op_finish.update(finishes)
        op_slack.update(slacks)
        state_critical[edge] = critical

    return StateTimingReport(
        clock_period=datapath.clock_period,
        state_critical_path=state_critical,
        op_start=op_start,
        op_finish=op_finish,
        op_slack=op_slack,
    )
