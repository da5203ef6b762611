"""Campaign specifications and their deterministic shard partition.

A :class:`CampaignSpec` is the JSON-safe description of one *campaign*: a
batch of work — differential fuzzing, cross-point sweeps and adaptive
explorations — large enough to spread over N processes or machines.  The
spec never touches the filesystem or the clock; everything a campaign does
is a pure function of the spec, so two machines given the same spec and
shard index produce byte-identical shard artifacts (the property CI's
fan-in merge and the determinism tests rely on).

The partition (:func:`plan_shards`) is the whole distribution story:

* **fuzzing** — each shard gets its own disjoint scenario stream
  (``fuzz_seed = spec.seed + shard_index``; the streams cannot collide
  because :func:`repro.verify.scenarios.scenario_stream` spaces base seeds
  by a large prime) and an even slice of the campaign's iteration budget.
  Reproducing a shard locally is therefore one command:
  ``repro verify run --seed <fuzz_seed> --iterations <n>``.
* **sweep points** — every sweep job's grid is expanded in a canonical
  order (sorted latencies x clocks x IIs) and the concatenated point list
  is dealt round-robin: global point ``k`` lands on shard ``k % shards``.
  Neighbouring grid points usually share a structure, so round-robin also
  spreads the delta-evaluation-friendly runs evenly.
* **explorations** — an adaptive exploration is inherently sequential
  (each wave depends on the last), so whole jobs are assigned:
  exploration ``j`` runs on shard ``j % shards``.

Shards are pure orchestration: the unit of work stays the single-seed
deterministic flow evaluation / oracle check the verify layer guarantees,
which is why shard outputs merge without coordination
(:mod:`repro.campaign.merge`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.flows.dse import DesignPoint

SPEC_SCHEMA = 1

def _int_tuple(values: Sequence[object]) -> Tuple[int, ...]:
    return tuple(int(value) for value in values)


def _param_tuple(values: object) -> Tuple[Tuple[str, int], ...]:
    if isinstance(values, Mapping):
        items = sorted(values.items())
    else:
        items = [tuple(pair) for pair in values]  # type: ignore[union-attr]
    return tuple((str(name), int(value)) for name, value in items)


@dataclass(frozen=True)
class SweepJob:
    """One sweep grid: a workload crossed with latency/clock/II knobs.

    ``ii_values`` empty means block scheduling (one point per latency x
    clock); non-empty switches the job to the pipelined flows with one
    point per latency x clock x II.  ``params`` are extra workload-builder
    arguments (``(("taps", 8),)`` for an 8-tap FIR), kept as a tuple of
    pairs so the job hashes and pickles.
    """

    workload: str
    latencies: Tuple[int, ...]
    clocks: Tuple[float, ...] = (1500.0,)
    ii_values: Tuple[int, ...] = ()
    margin_fraction: float = 0.05
    params: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "latencies", _int_tuple(self.latencies))
        object.__setattr__(self, "clocks",
                           tuple(float(clock) for clock in self.clocks))
        object.__setattr__(self, "ii_values", _int_tuple(self.ii_values))
        object.__setattr__(self, "params", _param_tuple(self.params))
        if not self.latencies:
            raise ReproError(f"sweep job {self.workload!r}: empty latency grid")
        if not self.clocks:
            raise ReproError(f"sweep job {self.workload!r}: empty clock grid")
        if any(ii < 1 for ii in self.ii_values):
            raise ReproError(
                f"sweep job {self.workload!r}: initiation intervals must be >= 1")

    @property
    def scheduling(self) -> str:
        return "pipeline" if self.ii_values else "block"

    def factory(self):
        from repro.workloads.factories import resolve_factory

        return resolve_factory(self.workload, dict(self.params))

    def points(self) -> List[DesignPoint]:
        """The job's grid in canonical order (the partition's reference).

        Sorted latencies, then clocks, then IIs — the order is part of the
        spec's contract: shard assignment indexes into this list, so it must
        be identical on every machine.
        """
        points = []
        for latency in sorted(set(self.latencies)):
            for clock in sorted(set(self.clocks)):
                if self.ii_values:
                    for ii in sorted(set(self.ii_values)):
                        points.append(DesignPoint(
                            name=f"{self.workload}_L{latency}_T{clock:g}_ii{ii}",
                            latency=latency, pipeline_ii=ii,
                            clock_period=clock))
                else:
                    points.append(DesignPoint(
                        name=f"{self.workload}_L{latency}_T{clock:g}",
                        latency=latency, clock_period=clock))
        return points

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "latencies": list(self.latencies),
            "clocks": list(self.clocks),
            "ii_values": list(self.ii_values),
            "margin_fraction": self.margin_fraction,
            "params": {name: value for name, value in self.params},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepJob":
        return cls(
            workload=str(data["workload"]),
            latencies=_int_tuple(data["latencies"]),  # type: ignore[arg-type]
            clocks=tuple(float(c) for c in data.get("clocks", (1500.0,))),  # type: ignore[union-attr]
            ii_values=_int_tuple(data.get("ii_values", ())),  # type: ignore[arg-type]
            margin_fraction=float(data.get("margin_fraction", 0.05)),  # type: ignore[arg-type]
            params=_param_tuple(data.get("params", ())),
        )


@dataclass(frozen=True)
class ExploreJob:
    """One adaptive exploration (a whole job is a shard's unit of work)."""

    workload: str
    latencies: Tuple[int, ...]
    clock_period: float = 1500.0
    margin_fraction: float = 0.05
    objectives: Tuple[str, ...] = ("latency_steps", "area")
    coarse_points: int = 5
    params: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "latencies", _int_tuple(self.latencies))
        object.__setattr__(self, "objectives",
                           tuple(str(o) for o in self.objectives))
        object.__setattr__(self, "params", _param_tuple(self.params))
        if not self.latencies:
            raise ReproError(
                f"explore job {self.workload!r}: empty latency grid")

    def factory(self):
        from repro.workloads.factories import resolve_factory

        return resolve_factory(self.workload, dict(self.params))

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "latencies": list(self.latencies),
            "clock_period": self.clock_period,
            "margin_fraction": self.margin_fraction,
            "objectives": list(self.objectives),
            "coarse_points": self.coarse_points,
            "params": {name: value for name, value in self.params},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExploreJob":
        return cls(
            workload=str(data["workload"]),
            latencies=_int_tuple(data["latencies"]),  # type: ignore[arg-type]
            clock_period=float(data.get("clock_period", 1500.0)),  # type: ignore[arg-type]
            margin_fraction=float(data.get("margin_fraction", 0.05)),  # type: ignore[arg-type]
            objectives=tuple(str(o) for o in
                             data.get("objectives", ("latency_steps", "area"))),  # type: ignore[union-attr]
            coarse_points=int(data.get("coarse_points", 5)),  # type: ignore[arg-type]
            params=_param_tuple(data.get("params", ())),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A JSON-safe campaign: fuzz budget + sweep grids + explorations.

    ``shards`` is part of the spec on purpose: the partition depends on it,
    so changing the fleet size is a *different* campaign (CI pins both the
    matrix and the spec's shard count to the same number; the plan CLI
    prints the partition for inspection).
    """

    name: str = "campaign"
    seed: int = 0
    shards: int = 1
    fuzz_iterations: int = 0
    fuzz_oracles: Tuple[str, ...] = ()
    fuzz_max_segments: Optional[int] = None
    #: Per-shard wall-clock safety cap for the fuzz stage (None: no cap).
    #: A capped shard records fewer scenarios but never different ones.
    fuzz_budget_seconds: Optional[float] = None
    sweeps: Tuple[SweepJob, ...] = ()
    explorations: Tuple[ExploreJob, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sweeps", tuple(self.sweeps))
        object.__setattr__(self, "explorations", tuple(self.explorations))
        object.__setattr__(self, "fuzz_oracles",
                           tuple(str(name) for name in self.fuzz_oracles))
        if self.shards < 1:
            raise ReproError("a campaign needs at least one shard")
        if self.fuzz_iterations < 0:
            raise ReproError("fuzz_iterations must be >= 0")
        from repro.workloads.factories import WORKLOAD_NAMES

        for job in tuple(self.sweeps) + tuple(self.explorations):
            if job.workload not in WORKLOAD_NAMES:
                raise ReproError(
                    f"unknown workload {job.workload!r}; expected one of "
                    f"{sorted(WORKLOAD_NAMES)}")

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "shards": self.shards,
            "fuzz": {
                "iterations": self.fuzz_iterations,
                "oracles": list(self.fuzz_oracles),
                "max_segments": self.fuzz_max_segments,
                "budget_seconds": self.fuzz_budget_seconds,
            },
            "sweeps": [job.to_dict() for job in self.sweeps],
            "explorations": [job.to_dict() for job in self.explorations],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        if data.get("schema") != SPEC_SCHEMA:
            raise ReproError(
                f"unknown campaign spec schema {data.get('schema')!r} "
                f"(expected {SPEC_SCHEMA})")
        fuzz = data.get("fuzz") or {}
        if not isinstance(fuzz, Mapping):
            raise ReproError("campaign spec 'fuzz' must be an object")
        max_segments = fuzz.get("max_segments")
        budget = fuzz.get("budget_seconds")
        return cls(
            name=str(data.get("name", "campaign")),
            seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
            shards=int(data.get("shards", 1)),  # type: ignore[arg-type]
            fuzz_iterations=int(fuzz.get("iterations", 0)),  # type: ignore[arg-type]
            fuzz_oracles=tuple(str(n) for n in fuzz.get("oracles", ())),  # type: ignore[union-attr]
            fuzz_max_segments=int(max_segments) if max_segments is not None else None,  # type: ignore[arg-type]
            fuzz_budget_seconds=float(budget) if budget is not None else None,  # type: ignore[arg-type]
            sweeps=tuple(SweepJob.from_dict(job)
                         for job in data.get("sweeps", ())),  # type: ignore[union-attr]
            explorations=tuple(ExploreJob.from_dict(job)
                               for job in data.get("explorations", ())),  # type: ignore[union-attr]
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except ValueError as exc:
                raise ReproError(f"campaign spec {path!r} is not valid JSON: "
                                 f"{exc}")
        if not isinstance(data, dict):
            raise ReproError(f"campaign spec {path!r} must be a JSON object")
        return cls.from_dict(data)


@dataclass(frozen=True)
class ShardPlan:
    """Everything one shard runs (a pure function of the spec + index).

    ``sweep_points`` maps sweep-job index to the indices this shard owns in
    that job's canonical :meth:`SweepJob.points` list; ``explorations``
    lists the exploration-job indices assigned to the shard.
    """

    index: int
    shards: int
    fuzz_seed: int
    fuzz_iterations: int
    sweep_points: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    explorations: Tuple[int, ...] = ()

    @property
    def sweep_point_count(self) -> int:
        return sum(len(indices) for _, indices in self.sweep_points)

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "shards": self.shards,
            "fuzz": {"seed": self.fuzz_seed,
                     "iterations": self.fuzz_iterations},
            "sweep_points": {str(job): list(indices)
                             for job, indices in self.sweep_points},
            "explorations": list(self.explorations),
        }


def plan_shards(spec: CampaignSpec) -> List[ShardPlan]:
    """Partition ``spec`` into its shard plans (see the module docstring).

    The partition is total and disjoint: every fuzz iteration, sweep point
    and exploration job lands on exactly one shard, whatever the shard
    count — so the union of the shard outputs is the campaign's output.
    """
    shards = spec.shards
    # Fuzzing: an even split of the iteration budget; the first
    # (fuzz_iterations % shards) shards carry one extra iteration.
    base, extra = divmod(spec.fuzz_iterations, shards)

    # Sweep points: deal the concatenated canonical grids round-robin.
    assigned: List[List[List[int]]] = [
        [[] for _ in spec.sweeps] for _ in range(shards)]
    cursor = 0
    for job_index, job in enumerate(spec.sweeps):
        for point_index in range(len(job.points())):
            assigned[cursor % shards][job_index].append(point_index)
            cursor += 1

    plans = []
    for index in range(shards):
        sweep_points = tuple(
            (job_index, tuple(indices))
            for job_index, indices in enumerate(assigned[index])
            if indices)
        plans.append(ShardPlan(
            index=index,
            shards=shards,
            fuzz_seed=spec.seed + index,
            fuzz_iterations=base + (1 if index < extra else 0),
            sweep_points=sweep_points,
            explorations=tuple(
                job_index for job_index in range(len(spec.explorations))
                if job_index % shards == index),
        ))
    return plans


def default_nightly_spec(seed: int = 0, shards: int = 4) -> CampaignSpec:
    """The built-in nightly campaign (``repro campaign ... --nightly``).

    Sized so one shard of the default four stays well inside a CI runner's
    patience: a few hundred fuzz checks behind a wall-clock safety cap,
    small-row IDCT/FIR sweep grids, an II grid for the pipelined flows and
    one adaptive exploration of the paper's Table-4 axis.
    """
    return CampaignSpec(
        name="nightly",
        seed=seed,
        shards=shards,
        fuzz_iterations=400,
        fuzz_max_segments=5,
        fuzz_budget_seconds=480.0,
        sweeps=(
            SweepJob(workload="idct", latencies=tuple(range(6, 17)),
                     clocks=(1500.0, 2000.0), params=(("rows", 1),)),
            SweepJob(workload="fir", latencies=tuple(range(4, 11)),
                     clocks=(1500.0,), params=(("taps", 6),)),
            SweepJob(workload="idct", latencies=(8,), clocks=(1500.0,),
                     ii_values=(1, 2, 4), params=(("rows", 1),)),
        ),
        explorations=(
            ExploreJob(workload="idct", latencies=tuple(range(8, 33)),
                       params=(("rows", 2),)),
        ),
    )

