"""Scheduling substrate: schedules, list scheduling, allocation and relaxation.

This package provides the *conventional* scheduling machinery (the paper's
Fig. 8 without the bold steps): resource-constrained list scheduling over the
topologically-sorted CFG edges, minimal resource allocation, and the
"expert system" relaxation loop that adds resources or upgrades speed grades
when a schedule attempt fails.  Both flows run that one loop
(:mod:`repro.sched.relaxation`); the slack-guided enhancement in
:mod:`repro.core.slack_scheduler` hands it a pass with the bold steps added.
"""

from repro.sched.schedule import Schedule, ScheduledOp
from repro.sched.allocation import (
    Allocation,
    minimal_allocation,
    resource_class_key,
)
from repro.sched.priorities import mobility_priority, combined_priority
from repro.sched.list_scheduler import (
    SchedulingAttempt,
    SchedulingFailure,
    try_list_schedule,
)
from repro.sched.relaxation import RelaxationLog, schedule_with_relaxation

__all__ = [
    "Schedule",
    "ScheduledOp",
    "Allocation",
    "minimal_allocation",
    "resource_class_key",
    "mobility_priority",
    "combined_priority",
    "SchedulingAttempt",
    "SchedulingFailure",
    "try_list_schedule",
    "RelaxationLog",
    "schedule_with_relaxation",
]
