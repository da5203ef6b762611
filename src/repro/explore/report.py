"""Frontier reports: JSON artifacts and markdown summaries.

One exploration (or a pair, adaptive vs dense) renders to

* a **JSON report** — machine-readable: objectives, evaluation ledger,
  frontier members with raw objective values, hypervolume, knee; CI
  uploads this as the frontier artifact;
* a **markdown report** — the same content for humans: a frontier table
  (raw, display-oriented values), the knee, and the evaluation ledger.

Plain-text tables reuse :func:`repro.flows.report.format_table`; markdown
tables use :func:`repro.flows.report.format_markdown_table`, so all sweep
reporting shares one set of formatting (and non-finite-value) rules.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.flows.report import fmt_metric, format_markdown_table, format_table
from repro.explore.adaptive import ExplorationResult
from repro.explore.pareto import FrontPoint, knee_point


def frontier_rows(front: Sequence[FrontPoint],
                  ) -> Tuple[List[str], List[List[str]]]:
    """Header + rows of a frontier table (raw, un-negated objective values)."""
    if not front:
        return ["point"], []
    objectives = front[0].objectives
    header = ["point"] + list(objectives)
    rows = [
        [point.label] + [fmt_metric(point.raw_value(objective), ".4g")
                         for objective in objectives]
        for point in front
    ]
    return header, rows


def frontier_report(result: ExplorationResult,
                    baseline: Optional[ExplorationResult] = None,
                    epsilon=0.0) -> Dict[str, object]:
    """The JSON-safe report of one exploration (optionally vs a baseline).

    ``baseline`` is typically the dense sweep the adaptive run is compared
    against; when given, the report gains the recovery coverage and the
    evaluation-saving factor.
    """
    knee = knee_point(result.front) if result.front else None
    report: Dict[str, object] = {
        "workload": result.workload,
        "mode": result.mode,
        "flow": result.flow,
        "objectives": list(result.objectives),
        "evaluations": {
            "engine": result.engine_evaluations,
            "flow_runs": result.flow_runs,
            "restored_from_store": result.restored,
            "fingerprint_deduplicated": result.deduplicated,
            "waves": result.waves,
            "latencies": result.evaluated_latencies,
        },
        "front": [
            {
                "label": point.label,
                **{objective: point.raw_value(objective)
                   for objective in point.objectives},
            }
            for point in result.front
        ],
        "hypervolume": result.hypervolume(),
        "knee": knee.label if knee is not None else None,
    }
    if baseline is not None:
        report["baseline"] = {
            "mode": baseline.mode,
            "engine_evaluations": baseline.engine_evaluations,
            "flow_runs": baseline.flow_runs,
            "front_size": len(baseline.front),
        }
        # The baseline's cost is everything it resolved (live + restored
        # from the store): a store-assisted dense pass still stands for a
        # full dense grid.
        baseline_total = baseline.engine_evaluations + baseline.restored
        report["recovery"] = {
            "epsilon": repr(epsilon),
            "coverage_of_baseline_front": result.covers(baseline, epsilon),
            "evaluation_saving_factor": (
                baseline_total / result.engine_evaluations
                if result.engine_evaluations else float("inf")),
        }
    return report


def render_markdown(report: Dict[str, object]) -> str:
    """The markdown rendering of a :func:`frontier_report` dict."""
    objectives: List[str] = list(report.get("objectives", []))
    lines = [
        f"# Frontier report — {report.get('workload', '?')} "
        f"({report.get('mode', '?')})",
        "",
        f"Flow: `{report.get('flow', '?')}` · objectives: "
        + ", ".join(f"`{objective}`" for objective in objectives),
        "",
    ]
    front = report.get("front", [])
    header = ["point"] + objectives
    rows = [
        [entry.get("label", "?")] + [fmt_metric(entry.get(objective), ".4g")
                                     for objective in objectives]
        for entry in front  # type: ignore[union-attr]
    ]
    lines.append(format_markdown_table(header, rows))
    lines.append("")
    lines.append(f"- hypervolume: {fmt_metric(report.get('hypervolume'), '.6g')}")
    lines.append(f"- knee point: {report.get('knee')}")
    evaluations = report.get("evaluations", {})
    if isinstance(evaluations, dict):
        lines.append(
            f"- evaluations: {evaluations.get('engine', '?')} engine "
            f"({evaluations.get('flow_runs', '?')} flow runs), "
            f"{evaluations.get('restored_from_store', 0)} restored from the "
            f"store, {evaluations.get('fingerprint_deduplicated', 0)} "
            f"deduplicated by fingerprint, "
            f"{evaluations.get('waves', 0)} refinement wave(s)")
    recovery = report.get("recovery")
    if isinstance(recovery, dict):
        lines.append(
            f"- recovery vs baseline: "
            f"{fmt_metric(100.0 * float(recovery.get('coverage_of_baseline_front', 0.0)), '.1f')} % "
            f"of the baseline front within epsilon, "
            f"{fmt_metric(recovery.get('evaluation_saving_factor'), '.2f')}x "
            f"fewer evaluations")
    lines.append("")
    return "\n".join(lines)


def frontier_text_table(result: ExplorationResult, title: Optional[str] = None,
                        ) -> str:
    """A plain-text frontier table (terminal output of the CLI/examples)."""
    header, rows = frontier_rows(result.front)
    return format_table(header, rows, title=title)


def write_report(report: Dict[str, object],
                 json_path: Optional[str] = None,
                 markdown_path: Optional[str] = None) -> None:
    """Write a report dict as JSON and/or markdown (dirs created)."""
    for path, payload in ((json_path, json.dumps(report, indent=1,
                                                 sort_keys=True) + "\n"),
                          (markdown_path, render_markdown(report))):
        if path is None:
            continue
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
