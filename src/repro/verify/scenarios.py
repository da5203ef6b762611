"""Seeded scenario generation for differential fuzzing.

A :class:`ScenarioSpec` is a *picklable, JSON-safe, shrinkable* description
of one fuzzing scenario: a multi-basic-block design (nested primitive
segment tuples in the encoding of
:func:`repro.workloads.generator.segmented_design`) plus the non-structural
evaluation knobs every flow result depends on — clock period, pipeline
initiation interval and slack-budgeting margin (the same key split as
:mod:`repro.explore.store`).

Design goals, in the spirit of compiler-style randomized testing:

* **deterministic** — :func:`generate_scenario` is a pure function of its
  seed; the same seed produces the same spec, the same design and the same
  :func:`fingerprint` in any process on any platform;
* **diverse** — width profiles (narrow/mixed/wide), weighted op mixes,
  straight-line and branchy (diamond) control flow, wait states, several
  clock/II/margin points;
* **always buildable** — operand references are indices into the visible
  value list *modulo its length*, so every mutation the shrinker produces
  still builds a valid design (the repair is part of the encoding, not a
  separate fixup pass).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.analysis_cache import design_fingerprint
from repro.errors import ReproError
from repro.flows.dse import DesignPoint
from repro.ir.design import Design
from repro.workloads.factories import SegmentedPointFactory
from repro.workloads.generator import (
    SEGMENT_DIAMOND,
    SEGMENT_LINEAR,
    resolve_seed,
    segmented_design,
)

SPEC_SCHEMA = 1

#: Weighted op mix of the scenario generator (value names of ``OpKind``).
SCENARIO_OP_MIX: Dict[str, float] = {
    "add": 4.0,
    "sub": 2.0,
    "mul": 2.0,
    "and": 0.6,
    "or": 0.4,
    "xor": 0.4,
    "shl": 0.5,
    "shr": 0.3,
    "lt": 0.5,
    "gt": 0.3,
    "eq": 0.3,
}

#: Input-port width profiles (all widths characterised by the default
#: library; maxima of any two profile members stay inside the profile set).
WIDTH_PROFILES: Dict[str, Tuple[int, ...]] = {
    "narrow": (4, 8),
    "mixed": (8, 16, 24),
    "wide": (16, 32),
}

#: Clock periods (ps) a scenario may draw.
CLOCK_CHOICES: Tuple[float, ...] = (1200.0, 1500.0, 2000.0, 3000.0)

#: Slack-budgeting margins a scenario may draw.
MARGIN_CHOICES: Tuple[float, ...] = (0.0, 0.05, 0.1)


@dataclass(frozen=True)
class ScenarioSpec:
    """One differential-fuzzing scenario (design structure + flow knobs)."""

    seed: int
    inputs: Tuple[int, ...]
    segments: Tuple[Tuple[object, ...], ...]
    outputs: int = 1
    tail_states: int = 0
    clock_period: float = 1500.0
    pipeline_ii: Optional[int] = None
    margin_fraction: float = 0.05
    profile: str = "mixed"
    #: Loop-carried dependence triples ``(src_index, dst_index, distance)``
    #: in :func:`repro.workloads.generator.segmented_design`'s modulo-repair
    #: encoding — any integers build, so shrinking stays closed.
    carried: Tuple[Tuple[int, int, int], ...] = ()

    # -- construction ------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"scenario_s{self.seed}"

    def design(self) -> Design:
        """Build the scenario's design (pure function of the spec).

        Memoized per spec instance — the fuzz loop fingerprints every
        scenario and most oracles then build the same design again, so one
        shared object reclaims that wall-clock for more scenarios.  Safe
        because flows never mutate designs structurally (the analysis-cache
        contract).  The memo is identity-only state: excluded from
        equality (non-field) and from pickling (``__getstate__``).
        """
        cached = self.__dict__.get("_design")
        if cached is None:
            cached = segmented_design(self.segments, self.inputs,
                                      outputs=self.outputs,
                                      tail_states=self.tail_states,
                                      name=self.name,
                                      clock_period=self.clock_period,
                                      carried=self.carried)
            object.__setattr__(self, "_design", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_design", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def factory(self) -> SegmentedPointFactory:
        """A picklable design factory for engine-level sweeps."""
        return SegmentedPointFactory(segments=self.segments,
                                     inputs=self.inputs,
                                     outputs=self.outputs,
                                     tail_states=self.tail_states,
                                     name=self.name,
                                     carried=self.carried)

    def point(self, name: str = "p0",
              clock_period: Optional[float] = None) -> DesignPoint:
        """The spec's evaluation point (optionally at another clock)."""
        return DesignPoint(
            name=name,
            latency=self.num_states(),
            pipeline_ii=self.pipeline_ii,
            clock_period=self.clock_period if clock_period is None
            else clock_period,
        )

    # -- size metrics (shrinking measures progress against these) ----------------

    def num_states(self) -> int:
        states = self.tail_states
        for segment in self.segments:
            states += 1 if segment[0] == SEGMENT_LINEAR else 3
        return states

    def num_design_ops(self) -> int:
        """Total DFG operations of the built design (the shrink metric)."""
        ops = len(self.inputs)  # reads
        for segment in self.segments:
            ops += sum(len(part) for part in segment[1:])
            if segment[0] == SEGMENT_DIAMOND:
                ops += 2  # automatic branch comparison + mux
        ops += min(self.outputs, _visible_main_values(self))  # writes
        return ops

    def fingerprint(self) -> str:
        """The structural fingerprint of the built design.

        The same :func:`repro.core.analysis_cache.design_fingerprint` the
        exploration store keys by, so corpus entries and store records
        speak one identity language.
        """
        return design_fingerprint(self.design())

    # -- (de)serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict (tuples become lists; stable key order)."""
        return {
            "schema": SPEC_SCHEMA,
            "seed": self.seed,
            "inputs": list(self.inputs),
            "segments": [_segment_to_list(segment)
                         for segment in self.segments],
            "outputs": self.outputs,
            "tail_states": self.tail_states,
            "clock_period": self.clock_period,
            "pipeline_ii": self.pipeline_ii,
            "margin_fraction": self.margin_fraction,
            "profile": self.profile,
            "carried": [list(triple) for triple in self.carried],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        if data.get("schema") != SPEC_SCHEMA:
            raise ReproError(
                f"unknown scenario spec schema {data.get('schema')!r}")
        ii = data.get("pipeline_ii")
        return cls(
            seed=int(data["seed"]),  # type: ignore[arg-type]
            inputs=tuple(int(w) for w in data["inputs"]),  # type: ignore[union-attr]
            segments=tuple(_segment_from_list(segment)
                           for segment in data["segments"]),  # type: ignore[union-attr]
            outputs=int(data.get("outputs", 1)),  # type: ignore[arg-type]
            tail_states=int(data.get("tail_states", 0)),  # type: ignore[arg-type]
            clock_period=float(data.get("clock_period", 1500.0)),  # type: ignore[arg-type]
            pipeline_ii=int(ii) if ii is not None else None,  # type: ignore[arg-type]
            margin_fraction=float(data.get("margin_fraction", 0.05)),  # type: ignore[arg-type]
            profile=str(data.get("profile", "mixed")),
            carried=tuple(tuple(int(x) for x in triple)
                          for triple in data.get("carried", ())),  # type: ignore[union-attr]
        )


def _visible_main_values(spec: ScenarioSpec) -> int:
    """How many main-path values the built design exposes for writes."""
    values = len(spec.inputs)
    for segment in spec.segments:
        if segment[0] == SEGMENT_LINEAR:
            values += len(segment[1])
        else:
            values += len(segment[1]) + len(segment[4]) + 1  # entry, merge, mux
    return values


def _segment_to_list(segment: Sequence[object]) -> List[object]:
    return [segment[0]] + [[list(op) for op in part]  # type: ignore[union-attr]
                           for part in segment[1:]]


def _segment_from_list(segment: Sequence[object]) -> Tuple[object, ...]:
    kind = str(segment[0])
    parts = tuple(tuple((str(op[0]), int(op[1]), int(op[2]))
                        for op in part)  # type: ignore[union-attr]
                  for part in segment[1:])
    if kind == SEGMENT_LINEAR and len(parts) != 1:
        raise ReproError("linear segments carry exactly one op list")
    if kind == SEGMENT_DIAMOND and len(parts) != 4:
        raise ReproError("diamond segments carry exactly four op lists")
    return (kind,) + parts


#: Fixed bounds of the random draw: input ports, ops per op list and wait
#: states after the last segment.  Ops are drawn from
#: :data:`SCENARIO_OP_MIX`.
_MAX_INPUTS = 4
_MAX_OPS_PER_LIST = 3
_MAX_TAIL_STATES = 2


@dataclass
class ScenarioProfile:
    """The bounds of the random draw a fuzzing campaign may steer."""

    max_segments: int = 3
    diamond_probability: float = 0.35
    pipeline_probability: float = 0.2


def _random_ops(rng: random.Random, count: int,
                kinds: Sequence[str], weights: Sequence[float],
                ) -> Tuple[Tuple[str, int, int], ...]:
    ops = []
    for _ in range(count):
        kind = rng.choices(list(kinds), weights=list(weights), k=1)[0]
        ops.append((kind, rng.randrange(1 << 16), rng.randrange(1 << 16)))
    return tuple(ops)


def generate_scenario(seed: Optional[int] = None,
                      profile: Optional[ScenarioProfile] = None,
                      ) -> ScenarioSpec:
    """Draw one scenario deterministically from ``seed``.

    ``seed=None`` resolves to a fresh concrete seed first (see
    :func:`repro.workloads.generator.resolve_seed`), so even ad-hoc draws
    are replayable from the returned spec.
    """
    resolved = resolve_seed(seed)
    rng = random.Random(resolved)
    bounds = profile or ScenarioProfile()
    kinds = list(SCENARIO_OP_MIX)
    weights = [SCENARIO_OP_MIX[kind] for kind in kinds]

    profile_name = rng.choice(sorted(WIDTH_PROFILES))
    widths = WIDTH_PROFILES[profile_name]
    inputs = tuple(rng.choice(widths)
                   for _ in range(rng.randint(1, _MAX_INPUTS)))

    segments: List[Tuple[object, ...]] = []
    for _ in range(rng.randint(1, bounds.max_segments)):
        if rng.random() < bounds.diamond_probability:
            segments.append((
                SEGMENT_DIAMOND,
                _random_ops(rng, rng.randint(0, _MAX_OPS_PER_LIST - 1),
                            kinds, weights),
                _random_ops(rng, rng.randint(1, _MAX_OPS_PER_LIST),
                            kinds, weights),
                _random_ops(rng, rng.randint(1, _MAX_OPS_PER_LIST),
                            kinds, weights),
                _random_ops(rng, rng.randint(0, 1), kinds, weights),
            ))
        else:
            segments.append((
                SEGMENT_LINEAR,
                _random_ops(rng, rng.randint(1, _MAX_OPS_PER_LIST),
                            kinds, weights),
            ))

    tail_states = rng.randint(0, _MAX_TAIL_STATES)
    spec = ScenarioSpec(
        seed=resolved,
        inputs=inputs,
        segments=tuple(segments),
        outputs=rng.randint(1, 2),
        tail_states=tail_states,
        clock_period=rng.choice(CLOCK_CHOICES),
        pipeline_ii=None,
        margin_fraction=rng.choice(MARGIN_CHOICES),
        profile=profile_name,
    )
    # Pipelining only makes sense on straight-line scenarios with room for
    # overlapped iterations; branchy CFGs keep II = None (full latency).
    all_linear = all(segment[0] == SEGMENT_LINEAR for segment in spec.segments)
    states = spec.num_states()
    if all_linear and states >= 2 and rng.random() < bounds.pipeline_probability:
        carried = tuple(
            (rng.randrange(1 << 16), rng.randrange(1 << 16), rng.randint(1, 3))
            for _ in range(rng.randint(0, 2)))
        spec = replace(spec, pipeline_ii=max(1, states // 2), carried=carried)
    return spec


def generate_pipelined_scenario(seed: Optional[int] = None,
                                profile: Optional[ScenarioProfile] = None,
                                ) -> ScenarioSpec:
    """Draw a scenario guaranteed to be pipelined and loop-carried.

    The family behind the pipelined-vs-unrolled oracle: straight-line
    control flow (diamonds are suppressed so the design unrolls), a
    requested initiation interval, and at least one seeded carried
    dependence.  Deterministic in ``seed`` like :func:`generate_scenario`.
    """
    bounds = profile or ScenarioProfile()
    bounds = replace(bounds, diamond_probability=0.0, pipeline_probability=1.0)
    spec = generate_scenario(seed, profile=bounds)
    if spec.pipeline_ii is None:
        # A one-state draw skipped the pipelined branch: stretch it by a
        # wait state and request the tightest interval.
        spec = replace(spec, tail_states=max(spec.tail_states, 1),
                       pipeline_ii=1)
    if not spec.carried:
        rng = random.Random(spec.seed ^ 0xC0FFEE)
        spec = replace(spec, carried=(
            (rng.randrange(1 << 16), rng.randrange(1 << 16),
             rng.randint(1, 3)),))
    return spec


def scenario_stream(base_seed: int, count: Optional[int] = None,
                    profile: Optional[ScenarioProfile] = None):
    """Yield ``(iteration, ScenarioSpec)`` pairs, deterministically.

    Iteration ``i`` derives its scenario seed as ``base_seed * P + i`` with a
    large prime ``P``, so streams with different base seeds do not collide on
    shared prefixes while ``(base_seed, i)`` always maps to the same spec.
    """
    iteration = 0
    while count is None or iteration < count:
        yield iteration, generate_scenario(base_seed * 1_000_003 + iteration,
                                           profile=profile)
        iteration += 1
