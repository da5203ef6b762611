"""Incrementally patchable per-state timing analysis.

:func:`repro.rtl.timing.analyze_state_timing` recomputes the combinational
chains of *every* state.  During area recovery that is wasteful: a trial
downgrade of one functional-unit instance only changes the delays of the
operations bound to that instance, and combinational chains never cross a
state boundary, so only the states the instance participates in can change.
:class:`IncrementalStateTiming` exploits that: it holds a cached
:class:`~repro.rtl.timing.StateTimingReport` and, when one instance changes
variant, re-runs the shared interned per-state kernel
(:class:`repro.rtl.timing.StateTimingKernel`) over exactly those states —
looked up via the :meth:`repro.rtl.datapath.Datapath.instance_edges` index —
and splices the fresh values into the report.

Because the full analysis and the patch path execute the same kernel (same
float operations, same order) over per-state op lists that are disjoint
between states, a patched report is *bit-for-bit equal* to a full recompute
— asserted against :func:`analyze_state_timing` in the test suite.  Splicing
updates existing keys only, so the report's dicts also keep the key order of
a full recompute.

There is no snapshot: a rejected trial is undone by reverting the variant
and recomputing the same states, which restores the report bit for bit
because the kernel is deterministic.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from repro.rtl.datapath import Datapath
from repro.rtl.timing import StateTimingKernel, StateTimingReport

_EPS = 1e-6


class IncrementalStateTiming:
    """A state-timing report that can be patched per FU-instance change.

    Parameters
    ----------
    datapath:
        The datapath to analyse.  The schedule and the binding structure
        (which operations live on which instance) must not change for the
        lifetime of this object; instance *variants* may change freely as
        long as the affected edges are re-synced via :meth:`recompute_edges`.
    """

    def __init__(self, datapath: Datapath):
        self.datapath = datapath
        self._kernel = StateTimingKernel(datapath)
        self.report: StateTimingReport = self._kernel.full_report()

    def instance_edges(self, instance_name: str) -> FrozenSet[str]:
        """The states a variant change of ``instance_name`` can affect."""
        return self.datapath.instance_edges(instance_name)

    def recompute_edges(self, edges: Iterable[str]) -> None:
        """Re-run the per-state kernel over ``edges`` and patch the report."""
        report = self.report
        kernel = self._kernel
        for edge in edges:
            starts, finishes, slacks, critical = kernel.state(edge)
            report.op_start.update(starts)
            report.op_finish.update(finishes)
            report.op_slack.update(slacks)
            report.state_critical_path[edge] = critical

    def edges_meet_timing(self, edges: Iterable[str]) -> bool:
        """True when every state in ``edges`` fits the clock period.

        When the report met timing globally before a patch confined to
        ``edges``, this is equivalent to (and much cheaper than) a global
        :meth:`StateTimingReport.meets_timing` check.
        """
        limit = self.report.clock_period + _EPS
        critical = self.report.state_critical_path
        return all(critical.get(edge, 0.0) <= limit for edge in edges)
