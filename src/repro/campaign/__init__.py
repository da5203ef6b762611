"""Sharded campaigns over the append-only JSONL stores.

The campaign layer turns the repo's single-process tools — the differential
fuzzer (:mod:`repro.verify`), batched sweeps (:mod:`repro.flows.sweep`) and
adaptive exploration (:mod:`repro.explore`) — into N-way fleets with a
coordination-free fan-in:

* :mod:`repro.campaign.spec` — the JSON-safe :class:`CampaignSpec` and its
  deterministic partition into :class:`ShardPlan`\\ s (:func:`plan_shards`);
* :mod:`repro.campaign.shard` — :func:`run_shard` executes one shard into a
  directory of corpus/store JSONL files plus a metrics manifest;
* :mod:`repro.campaign.merge` — :func:`merge_shards` unions shard
  directories byte-stably and order-invariantly, counting (never hiding)
  duplicates, conflicts and skipped lines;
* :mod:`repro.campaign.trend` — per-campaign summaries appended to a
  history JSONL, plus JSON/markdown trend reports;
* :mod:`repro.campaign.cli` — the ``repro campaign`` subcommands
  (``plan`` / ``run-shard`` / ``merge`` / ``report`` / ``bench``) CI's
  nightly matrix drives.
"""

from repro.campaign.merge import merge_shards
from repro.campaign.shard import run_shard
from repro.campaign.spec import (
    CampaignSpec,
    ExploreJob,
    ShardPlan,
    SweepJob,
    default_nightly_spec,
    plan_shards,
)
from repro.campaign.trend import (
    append_trend,
    bench_entry,
    campaign_summary,
    load_history,
    render_trend_markdown,
    trend_report,
)

__all__ = [
    "CampaignSpec",
    "ExploreJob",
    "ShardPlan",
    "SweepJob",
    "append_trend",
    "bench_entry",
    "campaign_summary",
    "default_nightly_spec",
    "load_history",
    "merge_shards",
    "plan_shards",
    "render_trend_markdown",
    "run_shard",
    "trend_report",
]
