"""Differential fuzzing in five minutes: scenarios, oracles, shrinking.

Runs a short seeded fuzzing run over the repo's differential oracles
(incremental vs. reference timing, Bellman-Ford vs. topological slack,
batched vs. per-point sweeps, analysis cache, Pareto invariants), then
demonstrates the shrinker on an artificial "bug" — an injected oracle that
bans multipliers — to show how a failing scenario collapses to a minimal
reproducer.  CI's nightly runs the same fuzzer at scale as four
``repro verify run`` shards of 100 checks each.

Usage::

    python examples/verify_fuzz.py [iterations] [seed]
"""

import sys

from repro.ir.operations import OpKind
from repro.verify import (
    ORACLES,
    Oracle,
    generate_scenario,
    run_fuzz,
    shrink_spec,
)


def main() -> None:
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 25
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0

    print(f"== fuzzing {iterations} scenario checks (seed {seed}) ==")
    report = run_fuzz(seed=seed, iterations=iterations, shrink=False)
    for name, count in sorted(report.checked_per_oracle.items()):
        print(f"  {name:<18} {count} scenario(s) checked")
    print(f"  wall time: {report.wall_time_seconds:.2f}s, "
          f"violations: {len(report.failures)}")
    print(f"  scenario digest: {report.scenario_digest[:32]}… "
          "(identical on every machine)")

    print("\n== the oracle registry ==")
    for name, oracle in ORACLES.items():
        print(f"  {name:<18} {oracle.description}")

    # Demonstrate shrinking with an injected bug: pretend multipliers are
    # forbidden and minimize the first scenario that "fails".
    def has_mul(spec) -> bool:
        return any(op.kind is OpKind.MUL
                   for op in spec.design().dfg.operations)

    injected = Oracle(
        name="demo-mul-ban",
        description="demo oracle: designs must not contain multipliers",
        check=lambda spec, library: "contains a multiplier"
        if has_mul(spec) else "",
    )
    failing = next(spec for spec in (generate_scenario(s) for s in range(100))
                   if has_mul(spec))
    print(f"\n== shrinking a failing scenario of the {injected.name!r} oracle ==")
    print(f"  seed {failing.seed}: {failing.num_design_ops()} design ops, "
          f"{failing.num_states()} states")
    result = shrink_spec(failing, has_mul, max_evaluations=500)
    print(f"  shrunk to {result.spec.num_design_ops()} ops in "
          f"{result.evaluations} oracle evaluations "
          f"({len(result.accepted_steps)} accepted steps)")
    kinds = sorted(op.kind.value for op in result.spec.design().dfg.operations)
    print(f"  minimal reproducer operations: {', '.join(kinds)}")


if __name__ == "__main__":
    main()
