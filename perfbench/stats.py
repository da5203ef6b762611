"""Summary statistics shared by the benchmark's driver and workers.

Every helper here is a pure function of its inputs, so the unit tests in
``test_perfbench.py`` pin them on tiny lists.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Iterable, Optional, Sequence

#: Percentiles a latency distribution may report, highest last.
CANDIDATE_PERCENTILES = (50, 90, 99, 99.9)

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation.

    Uses the "inclusive" rule of :func:`statistics.quantiles`: the rank of
    the percentile is ``q/100 * (n - 1)`` over the sorted samples, so the
    result always lies between the smallest and the largest sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``-th percentile."""
    return int(count * (100.0 - q) / 100.0 + 1e-9)


def highest_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with enough samples beyond it.

    ``None`` when even the median has fewer than :data:`MIN_SAMPLES_BEYOND`
    samples above it (fewer than 20 samples).
    """
    best = None
    for q in CANDIDATE_PERCENTILES:
        if samples_beyond(count, q) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, with 0 for an empty base."""
    return numerator / denominator if denominator else 0.0


def digest(payload: object) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
