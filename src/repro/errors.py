"""Exception hierarchy used across the repro package.

All exceptions raised intentionally by the library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while still letting programming errors (``TypeError``,
``KeyError`` on internal maps, ...) surface normally.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class IRError(ReproError):
    """Raised for malformed CFG/DFG structures (validation failures)."""


class LibraryError(ReproError):
    """Raised for inconsistent resource-library definitions or lookups."""


class TimingError(ReproError):
    """Raised by the timing-analysis engines for invalid inputs."""


class SchedulingError(ReproError):
    """Raised when a scheduling pass fails on a valid input."""


class BindingError(ReproError):
    """Raised when binding/sharing cannot be completed."""


class InfeasibleDesignError(SchedulingError):
    """Raised when no relaxation can make the design schedulable.

    Mirrors the "design is overconstrained" outcome of the expert system in
    the paper's Fig. 8 scheduling framework.
    """


class DeadlineExceeded(ReproError):
    """Raised when a deadline-bounded call ran out of wall-clock budget.

    Raised by :func:`repro.core.deadline.call_with_deadline` and consumed
    by the serve layer's retry policy and the fuzzer's per-oracle budget
    enforcement; it means "the work was cut off", never "the work failed".
    """
