"""Differential oracles over pairs of independently-implemented engines.

Every oracle wraps one of the repo's "two implementations must agree"
equivalences and checks it on a generated :class:`~repro.verify.scenarios.ScenarioSpec`:

==============================  ==================================================
oracle                          equivalence under test
==============================  ==================================================
``area-recovery``               incremental :func:`repro.rtl.area_recovery.recover_area`
                                vs. the full-recompute
                                :func:`~repro.rtl.area_recovery.recover_area_reference`
                                (downgrades, areas, accept order), and its
                                handed-over report vs. a fresh analysis
``sequential-slack``            Bellman-Ford constraint-graph relaxation vs. the
                                linear topological sweep, aligned and plain
``pipeline-cache``              both flows on the shared bundle of
                                :meth:`repro.flows.pipeline.PointArtifacts.of`
                                vs. :func:`repro.flows.dse.evaluate_point` on its
                                private bundle
``sweep-session``               batched :class:`repro.flows.sweep.SweepSession`
                                evaluation vs. independent per-point
                                :func:`~repro.flows.dse.evaluate_point` runs,
                                **exact** metrics equality, and ``run``'s
                                ``failures`` equal the per-point errors
``pareto-front``                :func:`repro.explore.pareto.front_invariant_violations`
                                on a scenario-seeded generated front
``graphkit-kernels``            CSR array kernels (sequential slack and
                                Bellman-Ford, aligned and plain) vs. the
                                dict-based ``*_reference`` implementations,
                                **exact** float equality
``graphkit-state-timing``       :func:`repro.rtl.timing.analyze_state_timing`
                                (interned :class:`~repro.rtl.timing.StateTimingKernel`)
                                vs. :func:`~repro.rtl.timing.analyze_state_timing_reference`,
                                **exact** report equality
``pipelined-vs-unrolled``       the modulo schedule at the achieved II, expanded
                                over :func:`repro.ir.transforms.unroll_loop`'s
                                acyclic ``k``-iteration unrolling, satisfies every
                                materialised dependence edge and shares each FU
                                instance collision-free (steps distinct mod II)
==============================  ==================================================

Failure semantics: a scenario on which *both* sides fail with the same
:class:`~repro.errors.ReproError` type and message is an **agreement** (the
design is legitimately infeasible and both engines said so identically); one
side failing, differing messages, or any non-``ReproError`` exception is a
violation.  Oracles never raise — the fuzz runner treats an escaped
exception as a harness bug, not a finding.

Adding an oracle: write ``def check(spec, library) -> str`` returning an
empty string on agreement and a human-readable violation otherwise, then
decorate it with :func:`oracle`.  The registry drives the CLI, the runner
and the docs table.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.flows.conventional import conventional_flow
from repro.flows.dse import DSEEntry, evaluate_point
from repro.flows.pipeline import PointArtifacts
from repro.flows.slack_based import slack_based_flow
from repro.flows.sweep import SweepSession
from repro.lib.library import Library
from repro.lib.tsmc90 import tsmc90_library
from repro.core.bellman_ford import compute_sequential_slack_bellman_ford
from repro.core.sequential_slack import compute_sequential_slack
from repro.explore.pareto import FrontPoint, front_invariant_violations
from repro.ir.cfg import NodeKind
from repro.ir.operations import OpKind
from repro.ir.transforms import unroll_loop
from repro.core.graphkit import kernel_vs_reference_problems
from repro.rtl.area_recovery import recover_area, recover_area_reference
from repro.rtl.timing import analyze_state_timing, analyze_state_timing_reference
from repro.verify.scenarios import ScenarioSpec

_ABS_TOL = 1e-6


@dataclass(frozen=True)
class OracleOutcome:
    """The verdict of one oracle on one scenario.

    ``timed_out`` marks the structured *timeout* outcome: the oracle was
    cut off at its wall-clock deadline (see
    :func:`repro.verify.runner.run_oracle_guarded`), so ``ok=False`` means
    "unchecked in time", not "disagreement" — the runner records it but
    never tries to shrink it (every probe would run out of time again).
    """

    oracle: str
    ok: bool
    details: str = ""
    timed_out: bool = False


@dataclass(frozen=True)
class Oracle:
    """A named differential oracle."""

    name: str
    description: str
    check: Callable[[ScenarioSpec, Library], str]

    def run(self, spec: ScenarioSpec, library: Optional[Library] = None,
            ) -> OracleOutcome:
        library = library if library is not None else default_library()
        details = self.check(spec, library)
        return OracleOutcome(oracle=self.name, ok=not details, details=details)


#: The oracle registry, in registration order (drives round-robin scheduling).
ORACLES: Dict[str, Oracle] = {}

_library_singleton: Optional[Library] = None


def default_library() -> Library:
    """The shared deterministic library all oracles evaluate against."""
    global _library_singleton
    if _library_singleton is None:
        _library_singleton = tsmc90_library()
    return _library_singleton


def oracle(name: str, description: str):
    """Register a differential oracle under ``name``."""

    def register(check: Callable[[ScenarioSpec, Library], str]) -> Oracle:
        if name in ORACLES:
            raise ReproError(f"duplicate oracle name {name!r}")
        entry = Oracle(name=name, description=description, check=check)
        ORACLES[name] = entry
        return entry

    return register


def select_oracles(names: Optional[List[str]] = None) -> List[Oracle]:
    """Resolve oracle names (``None`` = all, in registration order)."""
    if not names:
        return list(ORACLES.values())
    missing = [name for name in names if name not in ORACLES]
    if missing:
        raise ReproError(
            f"unknown oracle(s) {missing}; registered: {sorted(ORACLES)}")
    return [ORACLES[name] for name in names]


# -- differential plumbing ---------------------------------------------------------


def _run_side(fn: Callable[[], object]) -> Tuple[object, Optional[str]]:
    """Run one side of a differential pair; errors become comparable strings."""
    try:
        return fn(), None
    except ReproError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _compare_failures(name_a: str, error_a: Optional[str],
                      name_b: str, error_b: Optional[str]) -> Optional[str]:
    """Arbitrate a failed side: None = proceed to value comparison.

    Equal failures on both sides are agreement (empty violation string);
    asymmetric failures are a violation.
    """
    if error_a is None and error_b is None:
        return None
    if error_a == error_b:
        return ""
    return (f"{name_a} and {name_b} disagree on feasibility: "
            f"{name_a}={error_a or 'ok'!s}, {name_b}={error_b or 'ok'!s}")


def _entry_metrics_json(entry: DSEEntry) -> str:
    return json.dumps(entry.metrics(), sort_keys=True)


# -- oracle: incremental vs reference area recovery --------------------------------


@oracle("area-recovery",
        "incremental recover_area == recover_area_reference "
        "(downgrades, areas, accept order; its report == a fresh analysis)")
def _check_area_recovery(spec: ScenarioSpec, library: Library) -> str:
    design = spec.design()

    def fresh_datapath():
        flow = conventional_flow(
            design, library, clock_period=spec.clock_period,
            pipeline_ii=spec.pipeline_ii, area_recovery=False,
            artifacts=PointArtifacts.build(design),
        )
        return flow.datapath

    built_a, error_a = _run_side(fresh_datapath)
    built_b, error_b = _run_side(fresh_datapath)
    verdict = _compare_failures("flow-run-1", error_a, "flow-run-2", error_b)
    if verdict is not None:
        return verdict

    reference = recover_area_reference(built_a)
    incremental = recover_area(built_b)
    problems: List[str] = []
    if incremental.downgrades != reference.downgrades:
        problems.append(f"downgrades {incremental.downgrades} != "
                        f"{reference.downgrades}")
    if incremental.area_after != reference.area_after:
        problems.append(f"area_after {incremental.area_after!r} != "
                        f"{reference.area_after!r}")
    if incremental.changed_instances != reference.changed_instances:
        problems.append(f"changed instances {incremental.changed_instances} "
                        f"!= {reference.changed_instances}")
    # The report FlowRun.finish consumes must describe the final datapath.
    fresh = analyze_state_timing(built_b)
    for name in ("state_critical_path", "op_start", "op_finish", "op_slack"):
        if getattr(incremental.timing, name) != getattr(fresh, name):
            problems.append(f"handed-over report's {name} != fresh analysis")
    return "; ".join(problems)


# -- oracle: Bellman-Ford vs topological sequential slack --------------------------


@oracle("sequential-slack",
        "Bellman-Ford relaxation == topological sweep "
        "(arrival/required/slack, aligned and plain)")
def _check_sequential_slack(spec: ScenarioSpec, library: Library) -> str:
    design = spec.design()
    artifacts = PointArtifacts.build(design)
    delays = {
        op.name: library.operation_delay(op, library.fastest_variant(op))
        for op in design.dfg.operations
        if op.kind is not OpKind.CONST and op.is_synthesizable
    }
    problems: List[str] = []
    for aligned in (False, True):
        fast, error_fast = _run_side(lambda: compute_sequential_slack(
            artifacts.timed, delays, spec.clock_period, aligned=aligned))
        slow, error_slow = _run_side(
            lambda: compute_sequential_slack_bellman_ford(
                artifacts.timed, delays, spec.clock_period, aligned=aligned))
        verdict = _compare_failures("topological", error_fast,
                                    "bellman-ford", error_slow)
        if verdict is not None:
            if verdict:
                problems.append(f"aligned={aligned}: {verdict}")
            continue
        if set(fast.slack) != set(slow.slack):
            problems.append(f"aligned={aligned}: operation sets differ")
            continue
        for name in fast.slack:
            for field_name in ("arrival", "required", "slack"):
                a = getattr(fast, field_name)[name]
                b = getattr(slow, field_name)[name]
                if abs(a - b) > _ABS_TOL:
                    problems.append(
                        f"aligned={aligned}: {field_name}[{name}] "
                        f"{b!r} != {a!r}")
    return "; ".join(problems[:5])


# -- oracle: analysis cache on vs off ----------------------------------------------


@oracle("pipeline-cache",
        "both flows on the analysis cache's shared artifact bundle == "
        "evaluate_point with its private bundle")
def _check_pipeline_cache(spec: ScenarioSpec, library: Library) -> str:
    factory = spec.factory()
    point = spec.point()

    def on_shared_bundle() -> DSEEntry:
        design = factory(point)
        artifacts = PointArtifacts.of(design)
        return DSEEntry(
            point=point,
            conventional=conventional_flow(
                design, library, clock_period=point.clock_period,
                pipeline_ii=point.pipeline_ii, artifacts=artifacts),
            slack_based=slack_based_flow(
                design, library, clock_period=point.clock_period,
                pipeline_ii=point.pipeline_ii,
                margin_fraction=spec.margin_fraction, artifacts=artifacts))

    cached, error_cached = _run_side(on_shared_bundle)
    fresh, error_fresh = _run_side(lambda: evaluate_point(
        factory, library, point, margin_fraction=spec.margin_fraction))
    verdict = _compare_failures("cache-on", error_cached,
                                "cache-off", error_fresh)
    if verdict is not None:
        return verdict
    json_cached = _entry_metrics_json(cached)
    json_fresh = _entry_metrics_json(fresh)
    if json_cached != json_fresh:
        return "metrics with the analysis cache differ from a fresh bundle"
    return ""


# -- oracle: batched sweep session vs independent per-point evaluation -------------


@oracle("sweep-session",
        "batched SweepSession evaluation == independent per-point "
        "evaluate_point (exact metrics equality, failures == per-point "
        "errors)")
def _check_sweep_session(spec: ScenarioSpec, library: Library) -> str:
    """The session's cross-point sharing must be observationally invisible.

    One session evaluates three knob-neighboring points of the scenario (the
    base clock, a slower and a faster one — same structure, so the second
    and third ride the session's delta path), each compared against a fresh
    ``evaluate_point`` with a private artifact bundle.  A second session
    then always runs the same points *batched* through ``run``: its
    ``failures`` must name exactly the points that failed per point, with
    the same ``"<Type>: <message>"``, and its entries must reproduce the
    per-point metrics in caller order.
    """
    factory = spec.factory()
    points = [
        spec.point("p0"),
        spec.point("p1", clock_period=spec.clock_period * 1.25),
        spec.point("p2", clock_period=spec.clock_period * 0.8),
    ]
    session = SweepSession(factory, library,
                           margin_fraction=spec.margin_fraction)
    problems: List[str] = []
    solo_json: Dict[str, str] = {}
    solo_errors: Dict[str, str] = {}
    for point in points:
        shared, error_shared = _run_side(lambda: session.evaluate(point))
        solo, error_solo = _run_side(lambda: evaluate_point(
            factory, library, point, margin_fraction=spec.margin_fraction))
        if error_solo is None:
            solo_json[point.name] = _entry_metrics_json(solo)
        else:
            solo_errors[point.name] = error_solo
        verdict = _compare_failures("session", error_shared,
                                    "per-point", error_solo)
        if verdict is not None:
            if verdict:
                problems.append(f"{point.name}: {verdict}")
            continue
        if _entry_metrics_json(shared) != solo_json[point.name]:
            problems.append(f"{point.name}: session metrics differ from "
                            "per-point evaluation")

    batched = SweepSession(factory, library,
                           margin_fraction=spec.margin_fraction).run(points)
    batched_errors = {failure.point.name: failure.error
                      for failure in batched.failures}
    if batched_errors != solo_errors:
        problems.append(f"batched failures {batched_errors} differ from the "
                        f"per-point errors {solo_errors}")
    names = [entry.point.name for entry in batched.entries]
    if names != [point.name for point in points if point.name in solo_json]:
        problems.append(f"batched run returned entries {names}; per-point "
                        f"evaluation succeeded on {sorted(solo_json)}")
    else:
        for entry in batched.entries:
            if _entry_metrics_json(entry) != solo_json[entry.point.name]:
                problems.append(f"{entry.point.name}: batched metrics differ "
                                "from per-point evaluation")
    return "; ".join(problems)


# -- oracle: graphkit CSR kernels vs reference implementations ---------------------


@oracle("graphkit-kernels",
        "CSR array kernels == dict-based *_reference implementations "
        "(sequential slack and Bellman-Ford, aligned and plain, exact)")
def _check_graphkit_kernels(spec: ScenarioSpec, library: Library) -> str:
    design = spec.design()
    artifacts = PointArtifacts.build(design)
    delays = {
        op.name: library.operation_delay(op, library.fastest_variant(op))
        for op in design.dfg.operations
        if op.kind is not OpKind.CONST and op.is_synthesizable
    }
    problems = kernel_vs_reference_problems(
        artifacts.timed, delays, spec.clock_period)
    return "; ".join(problems[:5])


# -- oracle: interned state-timing kernel vs reference -----------------------------


@oracle("graphkit-state-timing",
        "interned StateTimingKernel analyze_state_timing == "
        "analyze_state_timing_reference (exact report equality)")
def _check_graphkit_state_timing(spec: ScenarioSpec, library: Library) -> str:
    design = spec.design()

    def build_flow():
        return conventional_flow(
            design, library, clock_period=spec.clock_period,
            pipeline_ii=spec.pipeline_ii,
            artifacts=PointArtifacts.build(design),
        )

    flow, error = _run_side(build_flow)
    if error is not None:
        # Legitimately infeasible: there is no datapath to compare on, and
        # the feasibility arbitration itself is covered by the other oracles.
        return ""
    datapath = flow.datapath
    kernel = analyze_state_timing(datapath)
    reference = analyze_state_timing_reference(datapath)
    problems: List[str] = []
    if kernel.clock_period != reference.clock_period:
        problems.append("clock periods differ")
    for field_name in ("state_critical_path", "op_start", "op_finish",
                       "op_slack"):
        kernel_map = getattr(kernel, field_name)
        reference_map = getattr(reference, field_name)
        if kernel_map != reference_map:
            keys = set(kernel_map) | set(reference_map)
            diffs = [key for key in sorted(keys)
                     if kernel_map.get(key) != reference_map.get(key)]
            problems.append(f"{field_name} differs on {diffs[:3]}")
    return "; ".join(problems)


# -- oracle: modulo schedule vs acyclic unrolled expansion -------------------------


@oracle("pipelined-vs-unrolled",
        "the modulo schedule, expanded over an acyclic k-iteration "
        "unrolling, satisfies every dependence and shares FUs "
        "collision-free (steps distinct mod II)")
def _check_pipelined_vs_unrolled(spec: ScenarioSpec, library: Library) -> str:
    """Differential witness of modulo scheduling.

    A pipelined schedule asserts that iteration ``i`` may start ``i * II``
    steps after iteration 0 while every loop-carried dependence still
    holds.  :func:`repro.ir.transforms.unroll_loop` makes that claim
    checkable without the cyclic machinery: in the ``k``-iteration
    expansion each carried edge of distance ``d`` is an ordinary forward
    edge ``src@(i-d) -> dst@i``, and op ``x@i`` starts at
    ``step(x) + i * II``.  The oracle asserts (a) every expanded edge is
    satisfied — producer strictly before consumer, or same step with the
    producer's chained finish no later than the consumer's start — and
    (b) the binding's FU sharing is collision-free under the expansion:
    the ops of one instance occupy pairwise-distinct steps modulo the II
    (two overlapped iterations claim an FU in the same cycle otherwise).
    """
    if spec.pipeline_ii is None:
        return ""  # not a pipelined scenario; nothing to witness
    design = spec.design()
    if any(node.kind not in (NodeKind.START, NodeKind.STATE)
           for node in design.cfg.nodes):
        return ""  # branchy loops do not unroll (and are never pipelined)

    flow, error = _run_side(lambda: conventional_flow(
        design, library, clock_period=spec.clock_period,
        pipeline_ii=spec.pipeline_ii, scheduling="pipeline",
        artifacts=PointArtifacts.build(design)))
    if error is not None:
        # Legitimately infeasible at this clock; feasibility arbitration
        # is the other oracles' business.
        return ""
    ii = int(flow.details["initiation_interval"])
    schedule = flow.schedule

    # Enough iterations that every carried distance materialises at least
    # once and the steady state overlaps.
    factor = max(2, -(-flow.latency_steps // ii) + 1)
    unrolled, error = _run_side(lambda: unroll_loop(design, factor))
    if error is not None:
        return f"unroll_loop failed on a pipelined design: {error}"

    def expanded(op_name: str):
        base, _, iteration = op_name.rpartition("@")
        item = schedule.get(base)
        if item is None:
            return None
        return item.step + int(iteration) * ii, item

    problems: List[str] = []
    for edge in unrolled.dfg.forward_edges:
        src = expanded(edge.src)
        dst = expanded(edge.dst)
        if src is None or dst is None:
            continue  # constants are not scheduled
        src_step, src_item = src
        dst_step, dst_item = dst
        if src_step < dst_step:
            continue
        if src_step == dst_step \
                and src_item.finish <= dst_item.start + _ABS_TOL:
            continue
        problems.append(
            f"dependence {edge.src} -> {edge.dst} violated: producer at "
            f"expanded step {src_step} (finish {src_item.finish:.1f}) vs "
            f"consumer at {dst_step} (start {dst_item.start:.1f})")

    for instance in flow.datapath.binding.instances:
        residues: Dict[int, str] = {}
        for op_name in instance.ops:
            step = schedule.step_of(op_name)
            residue = step % ii
            other = residues.get(residue)
            if other is not None:
                problems.append(
                    f"FU {instance.name} is claimed by {other} and "
                    f"{op_name} in the same cycle (steps collide mod "
                    f"II={ii}): overlapped iterations would conflict")
            else:
                residues[residue] = op_name
    return "; ".join(problems[:5])


# -- oracle: Pareto front invariants on generated fronts ---------------------------


@oracle("pareto-front",
        "pareto_front/coverage/hypervolume/knee invariants hold on a "
        "scenario-seeded generated front")
def _check_pareto_front(spec: ScenarioSpec, library: Library) -> str:
    rng = random.Random(spec.seed ^ 0x5EED)
    dims = rng.choice((2, 3))
    count = rng.randint(8, 48)
    objectives = tuple(f"axis{axis}" for axis in range(dims))
    points = []
    for index in range(count):
        # A mix of a correlated trade-off curve and uniform noise, plus
        # occasional exact duplicates, to exercise antichain/dedup paths.
        if points and rng.random() < 0.1:
            source = rng.choice(points)
            points.append(FrontPoint(label=f"dup{index}",
                                     objectives=objectives,
                                     values=source.values))
            continue
        base = rng.random()
        values = tuple(
            round(base if axis == 0 else (1.0 - base) + rng.uniform(0, 0.5), 6)
            for axis in range(dims)
        )
        points.append(FrontPoint(label=f"v{index}", objectives=objectives,
                                 values=values))
    violations = front_invariant_violations(points)
    return "; ".join(violations[:5])
