"""repro.verify — differential scenario fuzzing with shrinking.

The repo carries several pairs of independently-implemented engines that
must agree — incremental vs. reference state timing, Bellman-Ford vs.
topological slack analysis, batched vs. per-point sweeps, cached vs.
fresh analysis bundles, and the Pareto toolbox's front invariants.  This
package turns each equivalence into an *oracle* and checks it over streams
of seeded, generated scenarios, compiler-fuzzing style:

* :mod:`repro.verify.scenarios` — deterministic scenario generation
  (multi-basic-block designs with branches, wait states and mixed widths,
  plus clock/II/margin points), encoded as picklable, JSON-safe specs;
* :mod:`repro.verify.oracles` — the differential oracle registry;
* :mod:`repro.verify.shrink` — greedy delta-debugging of failing specs;
* :mod:`repro.verify.corpus` — an append-only JSONL corpus of failures
  (fingerprint-keyed, exploration-store conventions) for eternal replay;
* :mod:`repro.verify.runner` — the budgeted fuzzing loop;
* :mod:`repro.verify.cli` — the ``repro verify`` subcommand.
"""

from repro.verify.scenarios import (
    ScenarioProfile,
    ScenarioSpec,
    generate_pipelined_scenario,
    generate_scenario,
    scenario_stream,
)
from repro.verify.oracles import (
    ORACLES,
    Oracle,
    OracleOutcome,
    default_library,
    oracle,
    select_oracles,
)
from repro.verify.shrink import ShrinkResult, shrink_spec
from repro.verify.corpus import Corpus
from repro.verify.runner import (
    FuzzFailure,
    FuzzReport,
    replay_corpus,
    run_fuzz,
    shrink_failure,
)

__all__ = [
    "ScenarioProfile",
    "ScenarioSpec",
    "generate_pipelined_scenario",
    "generate_scenario",
    "scenario_stream",
    "ORACLES",
    "Oracle",
    "OracleOutcome",
    "default_library",
    "oracle",
    "select_oracles",
    "ShrinkResult",
    "shrink_spec",
    "Corpus",
    "FuzzFailure",
    "FuzzReport",
    "replay_corpus",
    "run_fuzz",
    "shrink_failure",
]
