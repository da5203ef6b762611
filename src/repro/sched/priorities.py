"""Priority functions used to order ready operations during list scheduling.

A priority function maps an operation name to a sortable key; smaller keys
are scheduled first.  Two priorities are provided:

* :func:`mobility_priority` — classic list scheduling: operations with the
  least mobility (smallest span, closest forced deadline) go first;
* :func:`combined_priority` — the paper's criticality measure: operations
  with the least sequential slack go first, mobility breaks ties.  The
  slack-guided scheduler uses it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans
from repro.core.sequential_slack import TimingResult

PriorityFn = Callable[[str], Tuple]


def mobility_priority(spans: OperationSpans) -> PriorityFn:
    """Least mobility (fewest legal states) first; name as a stable tie-break."""

    def priority(op_name: str) -> Tuple:
        return (spans.mobility(op_name), len(spans.span(op_name)), op_name)

    return priority


def combined_priority(timing: TimingResult, spans: OperationSpans) -> PriorityFn:
    """Slack first, then mobility, then name — the slack-guided default."""

    def priority(op_name: str) -> Tuple:
        return (
            timing.slack.get(op_name, float("inf")),
            spans.mobility(op_name),
            op_name,
        )

    return priority
