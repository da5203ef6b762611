"""Design-space exploration harness (paper Section VII, Table 4).

The paper evaluates its approach on 15 HLS + logic-synthesis runs of an IDCT,
sweeping latency (32 down to 8 states) and pipelining, and reports the area
of the conventional flow versus the slack-based flow for every design point.
:func:`run_dse` reproduces that experiment: it builds one design per point,
runs both flows and collects areas, powers, throughputs and run times.
:func:`scenario_sweep` generalizes it to kernel and random workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.ir.design import Design
from repro.lib.library import Library
from repro.flows.result import FlowResult


@dataclass(frozen=True)
class DesignPoint:
    """One DSE design point."""

    name: str
    latency: int
    pipeline_ii: Optional[int] = None
    clock_period: float = 1500.0

    @property
    def is_pipelined(self) -> bool:
        return self.pipeline_ii is not None


@dataclass
class DSEEntry:
    """Results of both flows for one design point."""

    point: DesignPoint
    conventional: FlowResult
    slack_based: FlowResult

    @property
    def area_conventional(self) -> float:
        return self.conventional.total_area

    @property
    def area_slack(self) -> float:
        return self.slack_based.total_area

    @property
    def saving_percent(self) -> float:
        if self.area_conventional <= 0:
            return 0.0
        return 100.0 * (self.area_conventional - self.area_slack) / self.area_conventional

    def metrics(self) -> Dict[str, object]:
        """A JSON-safe summary of the entry (used by result stores and tests).

        Wall-clock fields are deliberately excluded so that two runs of the
        same sweep — serial or parallel, in any process — produce identical
        metrics.
        """
        return {
            "point": {
                "name": self.point.name,
                "latency": self.point.latency,
                "pipeline_ii": self.point.pipeline_ii,
                "clock_period": self.point.clock_period,
            },
            "conventional": self.conventional.metrics(),
            "slack_based": self.slack_based.metrics(),
            "saving_percent": self.saving_percent,
        }


class PointFailure(NamedTuple):
    """A design point whose evaluation raised, with ``"<Type>: <message>"``."""

    point: DesignPoint
    error: str


@dataclass
class DSEResult:
    """The full sweep.

    ``entries`` holds the points that evaluated, in the caller's order;
    ``failures`` holds the points that raised, also in the caller's order.
    Every statistic below is over ``entries`` only.
    """

    entries: List[DSEEntry] = field(default_factory=list)
    wall_time_seconds: float = 0.0
    failures: List[PointFailure] = field(default_factory=list)

    def raise_on_failures(self) -> None:
        """Raise :class:`ReproError` naming every failed point, if any."""
        if self.failures:
            details = "; ".join(f"{failure.point.name}: {failure.error}"
                                for failure in self.failures)
            raise ReproError(f"{len(self.failures)} design point(s) failed: "
                             f"{details}")

    def average_saving_percent(self) -> float:
        if not self.entries:
            raise ReproError("average saving of an empty sweep is undefined")
        return sum(entry.saving_percent for entry in self.entries) / len(self.entries)

    @staticmethod
    def _ratio(values: List[float], metric: str) -> float:
        """max/min ratio with loud failures.

        An empty sweep and a sweep containing zero-valued entries used to
        both return ``0.0``, which silently hid failed design points; both
        now raise, with distinct messages so callers can tell them apart.
        """
        if not values:
            raise ReproError(f"{metric} range of an empty sweep is undefined")
        if min(values) <= 0:
            raise ReproError(
                f"{metric} range is undefined: the sweep contains "
                f"non-positive {metric} entries (failed design points?)"
            )
        return max(values) / min(values)

    def area_range(self, flow: str = "slack") -> float:
        """max/min area ratio across design points for one flow."""
        areas = [entry.area_slack if flow == "slack" else entry.area_conventional
                 for entry in self.entries]
        return self._ratio(areas, "area")

    def power_range(self, flow: str = "slack") -> float:
        powers = [entry.slack_based.total_power if flow == "slack"
                  else entry.conventional.total_power for entry in self.entries]
        return self._ratio(powers, "power")

    def throughput_range(self) -> float:
        values = [entry.slack_based.throughput for entry in self.entries]
        return self._ratio(values, "throughput")

    def wins(self) -> int:
        """Number of design points where the slack-based flow is smaller."""
        return sum(1 for entry in self.entries if entry.saving_percent > 0)

    def losses(self) -> int:
        return sum(1 for entry in self.entries if entry.saving_percent < 0)

    def metrics_list(self) -> List[Dict[str, object]]:
        """The JSON-safe per-point metrics of the sweep, in entry order.

        This is the exchange format of the exploration layer: feed it to
        :func:`repro.explore.pareto.front_from_metrics` or diff it with
        :mod:`repro.explore.compare` (:func:`repro.explore.store.memoized_run`
        persists the same dicts).
        """
        return [entry.metrics() for entry in self.entries]

    def pareto_front(self, objectives: Sequence[str] = ("latency_steps", "area"),
                     flow: str = "slack_based"):
        """The sweep's Pareto-optimal points over ``objectives``.

        Returns :class:`repro.explore.pareto.FrontPoint` objects (imported
        lazily — the exploration layer depends on the flows, not vice
        versa).
        """
        from repro.explore.pareto import front_from_metrics, pareto_front

        return pareto_front(front_from_metrics(self.metrics_list(),
                                               objectives, flow=flow))


def idct_design_points(clock_period: float = 1500.0) -> List[DesignPoint]:
    """The 15 IDCT design points mirroring the paper's Table 4 sweep.

    Eight non-pipelined points sweep the latency from 32 down to 8 states;
    seven pipelined points add initiation intervals down to a quarter of the
    latency, which together give roughly the paper's 7x throughput range.
    """
    non_pipelined = [32, 28, 24, 20, 16, 12, 10, 8]
    pipelined = [(32, 16), (24, 12), (20, 10), (16, 8), (16, 4), (12, 6), (8, 4)]
    points: List[DesignPoint] = []
    for index, latency in enumerate(non_pipelined, start=1):
        points.append(DesignPoint(name=f"D{index}", latency=latency,
                                  clock_period=clock_period))
    for offset, (latency, ii) in enumerate(pipelined, start=len(non_pipelined) + 1):
        points.append(DesignPoint(name=f"D{offset}", latency=latency,
                                  pipeline_ii=ii, clock_period=clock_period))
    return points


def latency_grid(
    low: int,
    high: int,
    clock_period: float = 1500.0,
    pipeline_ii: Optional[int] = None,
    prefix: str = "L",
) -> List[DesignPoint]:
    """A dense latency sweep: one design point per latency in ``[low, high]``.

    This is the exhaustive grid the adaptive explorer is benchmarked
    against (the Table-4 axis extends the paper's 15 hand-picked points to
    every latency in the range).
    """
    if high < low:
        raise ReproError(f"empty latency grid [{low}, {high}]")
    return [
        DesignPoint(name=f"{prefix}{latency}", latency=latency,
                    pipeline_ii=pipeline_ii, clock_period=clock_period)
        for latency in range(low, high + 1)
    ]


def evaluate_point(
    design_factory: Callable[[DesignPoint], Design],
    library: Library,
    point: DesignPoint,
    margin_fraction: float = 0.05,
    scheduling: str = "block",
) -> DSEEntry:
    """Run both flows on one design point and return its :class:`DSEEntry`.

    The design and its per-point analyses (latency, spans, timed DFG) are
    computed once, in a private bundle (:meth:`PointArtifacts.build`), and
    shared by both flows.  The cache contract says this equals running
    both flows on the shared bundle of :meth:`PointArtifacts.of`, which is
    exactly what the pipeline-cache oracle of :mod:`repro.verify.oracles`
    checks on generated scenarios.

    This function is a thin shim over a one-point
    :class:`repro.flows.sweep.SweepSession`; sweeps of more than one point
    should hold a session (or use :func:`run_dse`, which does) so
    cross-point sharing actually amortizes.  Unlike a sweep, it raises when
    the point fails.

    ``scheduling`` is forwarded to both flows (``"block"`` or
    ``"pipeline"`` — see :class:`repro.flows.sweep.SweepSession`).
    """
    from repro.flows.sweep import SweepSession

    session = SweepSession(design_factory, library,
                           margin_fraction=margin_fraction,
                           scheduling=scheduling)
    return session.evaluate(point)


def run_dse(
    design_factory: Callable[[DesignPoint], Design],
    library: Library,
    points: Sequence[DesignPoint],
    margin_fraction: float = 0.05,
    scheduling: str = "block",
) -> DSEResult:
    """Run the conventional and slack-based flows over all ``points``.

    ``design_factory`` maps a :class:`DesignPoint` to a :class:`Design`
    (typically a lambda around :func:`repro.workloads.idct_design`).

    A thin shim over :meth:`repro.flows.sweep.SweepSession.run`: points
    are visited in delta-friendly order, entries come back in the input
    order, and a point that raises lands in ``DSEResult.failures`` while
    the sweep goes on.

    ``scheduling`` is forwarded to the session (``"block"`` or
    ``"pipeline"`` — see :class:`repro.flows.sweep.SweepSession`).
    """
    from repro.flows.sweep import SweepSession

    session = SweepSession(design_factory, library,
                           margin_fraction=margin_fraction,
                           scheduling=scheduling)
    return session.run(points)


@dataclass(frozen=True)
class SweepScenario:
    """One workload scenario: a picklable factory plus its design points."""

    name: str
    factory: Callable[[DesignPoint], Design]
    points: Tuple[DesignPoint, ...]


def scenario_sweep(
    clock_period: float = 1500.0,
    random_sizes: Sequence[Tuple[int, int]] = ((3, 4), (4, 6), (5, 8)),
    random_seeds: Sequence[int] = (7, 23),
) -> List[SweepScenario]:
    """A scenario-diverse sweep: public-style kernels plus random designs.

    Generalizes the DSE harness beyond the paper's IDCT: each scenario
    sweeps one workload over several latencies, and the random scenarios
    add seeded layered designs at several sizes (``(layers, ops_per_layer)``
    pairs), standing in for the paper's "over 100 customer designs".  Run
    one with ``SweepSession(scenario.factory, library).run(scenario.points)``.
    """
    from repro.workloads.factories import KernelPointFactory, RandomPointFactory

    def points(prefix: str, latencies: Sequence[int]) -> Tuple[DesignPoint, ...]:
        return tuple(
            DesignPoint(name=f"{prefix}_L{latency}", latency=latency,
                        clock_period=clock_period)
            for latency in latencies
        )

    scenarios = [
        SweepScenario("fir8", KernelPointFactory("fir", params=(("taps", 8),)),
                      points("fir8", (6, 8, 10))),
        SweepScenario("matmul3",
                      KernelPointFactory("matmul", params=(("size", 3),)),
                      points("matmul3", (6, 8, 10))),
        SweepScenario("dct_butterfly", KernelPointFactory("dct_butterfly"),
                      points("dct", (5, 6, 8))),
        SweepScenario("fft8",
                      KernelPointFactory("fft_stage", params=(("points", 8),)),
                      points("fft8", (5, 6, 8))),
        SweepScenario("sobel", KernelPointFactory("sobel"),
                      points("sobel", (5, 6, 8))),
    ]
    for layers, ops in random_sizes:
        for seed in random_seeds:
            name = f"random_s{seed}_{layers}x{ops}"
            scenarios.append(SweepScenario(
                name,
                RandomPointFactory(seed=seed, layers=layers, ops_per_layer=ops),
                points(name, (layers + 2, layers + 4)),
            ))
    return scenarios
