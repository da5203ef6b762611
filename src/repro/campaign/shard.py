"""Execute one shard of a campaign into its own artifact directory.

A shard is the CI matrix's unit: ``repro campaign run-shard --shard i``
runs exactly the slice :func:`repro.campaign.spec.plan_shards` assigns to
``i`` and writes three files into its output directory —

* ``corpus.jsonl`` — oracle violations found by the shard's fuzz slice
  (the :class:`repro.verify.corpus.Corpus` dialect, shrunk reproducers
  included);
* ``store.jsonl`` — every sweep/exploration evaluation, keyed by
  structural fingerprint plus clock/II/margin
  (the :class:`repro.explore.store.ResultStore` dialect); both stages
  resolve their points through :func:`repro.explore.store.memoized_run`,
  so a shard rerun into the same directory evaluates nothing;
* ``shard-metrics.json`` — the shard's manifest and telemetry: the shard
  plan it executed, the fuzz report summary (iterations, scenario digest,
  per-oracle counts), sweep-session reuse statistics and failed sweep
  points, the
  :func:`repro.obs.metrics.snapshot` counters (oracle pass/fail/crash,
  sweep full/delta) and the unified :func:`~repro.obs.metrics.cache_stats`.

Both JSONL files are append-only stores in the shared canonical dialect,
so the fan-in step (:mod:`repro.campaign.merge`) unions any number of
shard directories byte-stably.  Everything a shard computes is a pure
function of ``(spec, index)`` — wall-clock numbers live only in the
metrics manifest, never in the mergeable stores.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional

from repro.campaign.merge import CORPUS_FILE, METRICS_FILE, STORE_FILE
from repro.campaign.spec import CampaignSpec, ShardPlan, plan_shards
from repro.errors import ReproError
from repro.explore.adaptive import AdaptiveExplorer, RefinementPolicy
from repro.explore.store import ResultStore, memoized_run
from repro.flows.sweep import SweepSession
from repro.verify.corpus import Corpus
from repro.verify.runner import run_fuzz
from repro.verify.scenarios import ScenarioProfile

SHARD_SCHEMA = 1


def _shard_plan(spec: CampaignSpec, index: int) -> ShardPlan:
    if not 0 <= index < spec.shards:
        raise ReproError(
            f"shard index {index} out of range for a {spec.shards}-shard "
            f"campaign")
    return plan_shards(spec)[index]


def _run_fuzz_stage(spec: CampaignSpec, plan: ShardPlan,
                    corpus: Corpus) -> Dict[str, object]:
    if plan.fuzz_iterations <= 0:
        return {"iterations": 0, "failures": 0, "checked_per_oracle": {},
                "seed": plan.fuzz_seed, "scenario_digest": None,
                "budget_exhausted": False}
    profile = None
    if spec.fuzz_max_segments is not None:
        profile = ScenarioProfile(max_segments=max(1, spec.fuzz_max_segments))
    report = run_fuzz(
        seed=plan.fuzz_seed,
        iterations=plan.fuzz_iterations,
        budget_seconds=spec.fuzz_budget_seconds,
        oracle_names=list(spec.fuzz_oracles) or None,
        corpus=corpus,
        profile=profile,
    )
    return {
        "seed": report.seed,
        "iterations": report.iterations,
        "failures": len(report.failures),
        "checked_per_oracle": dict(sorted(report.checked_per_oracle.items())),
        "scenario_digest": report.scenario_digest,
        "budget_exhausted": report.budget_exhausted,
        "wall_time_seconds": report.wall_time_seconds,
    }


def _run_sweep_stage(spec: CampaignSpec, plan: ShardPlan, library,
                     store: ResultStore) -> List[Dict[str, object]]:
    summaries = []
    for job_index, point_indices in plan.sweep_points:
        job = spec.sweeps[job_index]
        grid = job.points()
        points = [grid[i] for i in point_indices]
        session = SweepSession(job.factory(), library,
                               margin_fraction=job.margin_fraction,
                               scheduling=job.scheduling)
        _, failures = memoized_run(session, points, store,
                                   workload=job.workload)
        summaries.append({
            "job": job_index,
            "workload": job.workload,
            "points": len(points),
            "scheduling": job.scheduling,
            "session": session.stats.as_dict(),
            "failures": [{"point": failure.point.name, "error": failure.error}
                         for failure in failures],
        })
    return summaries


def _run_explore_stage(spec: CampaignSpec, plan: ShardPlan, library,
                       store: ResultStore) -> List[Dict[str, object]]:
    summaries = []
    for job_index in plan.explorations:
        job = spec.explorations[job_index]
        explorer = AdaptiveExplorer(
            job.factory(), library, job.latencies,
            clock_period=job.clock_period,
            margin_fraction=job.margin_fraction,
            objectives=job.objectives,
            policy=RefinementPolicy(coarse_points=job.coarse_points),
            store=store,
            workload=job.workload,
        )
        result = explorer.explore()
        summaries.append({
            "job": job_index,
            "workload": job.workload,
            "engine_evaluations": result.engine_evaluations,
            "restored": result.restored,
            "deduplicated": result.deduplicated,
            "waves": result.waves,
            "front_size": len(result.front),
        })
    return summaries


def run_shard(
    spec: CampaignSpec,
    index: int,
    out_dir: str,
    library=None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run shard ``index`` of ``spec`` into ``out_dir``; returns the manifest.

    The manifest (also written as ``shard-metrics.json``) is JSON-safe and
    carries everything the fan-in trend report needs from this shard
    beyond the two stores: the executed plan, the fuzz summary, per-job
    sweep/explore ledgers and the process metrics snapshot.
    """
    from repro.obs.metrics import cache_stats, snapshot

    plan = _shard_plan(spec, index)
    os.makedirs(out_dir, exist_ok=True)
    notify = progress or (lambda message: None)

    corpus = Corpus(os.path.join(out_dir, CORPUS_FILE))
    store = ResultStore(os.path.join(out_dir, STORE_FILE))
    # A clean shard (no failures, no sweep slice) still publishes both
    # stores — the artifact layout is predictable, so the fan-in never has
    # to guess whether a missing file means "empty" or "truncated upload".
    for path in (corpus.path, store.path):
        open(path, "a", encoding="utf-8").close()

    notify(f"shard {index}/{spec.shards}: fuzz seed {plan.fuzz_seed}, "
           f"{plan.fuzz_iterations} iteration(s)")
    fuzz_summary = _run_fuzz_stage(spec, plan, corpus)
    notify(f"shard {index}/{spec.shards}: {plan.sweep_point_count} sweep "
           f"point(s) across {len(plan.sweep_points)} job(s)")
    sweep_summaries = _run_sweep_stage(spec, plan, library or _library(),
                                       store)
    notify(f"shard {index}/{spec.shards}: {len(plan.explorations)} "
           f"exploration(s)")
    explore_summaries = _run_explore_stage(spec, plan, library or _library(),
                                           store)

    manifest: Dict[str, object] = {
        "schema": SHARD_SCHEMA,
        "campaign": spec.name,
        "seed": spec.seed,
        "plan": plan.to_dict(),
        "fuzz": fuzz_summary,
        "sweeps": sweep_summaries,
        "explorations": explore_summaries,
        "corpus_records": len(corpus),
        "store_records": len(store),
        "skipped_lines": {
            "corpus": corpus.skipped_lines,
            "store": store.skipped_lines,
        },
        "metrics": snapshot(),
        "cache": cache_stats(),
    }
    with open(os.path.join(out_dir, METRICS_FILE), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return manifest


_LIBRARY = None


def _library():
    """The default (memoized) resource library for shard runs."""
    global _LIBRARY
    if _LIBRARY is None:
        from repro.lib.tsmc90 import tsmc90_library

        _LIBRARY = tsmc90_library()
    return _LIBRARY
