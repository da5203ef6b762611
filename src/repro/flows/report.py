"""Report helpers: regenerate the paper's tables as plain-text rows.

Each ``tableN_rows`` helper returns a header plus data rows (lists of
strings) so benchmarks, examples and tests can print or assert on the same
representation.  :func:`format_table` renders them with aligned columns.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ir.operations import OpKind
from repro.lib.library import Library
from repro.flows.result import FlowResult


def fmt_metric(value, spec: str = ".1f") -> str:
    """Format one numeric cell, rendering non-numbers and non-finite values
    (``nan``/``inf`` from failed design points) as ``n/a`` instead of
    leaking ``nan`` strings into (or crashing) a table."""
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "n/a"
    if not math.isfinite(number):
        return "n/a"
    return format(number, spec)


def _normalize_rows(header: Sequence[str], rows: Iterable[Sequence[str]],
                    ) -> Tuple[List[str], List[List[str]], List[int]]:
    """Stringify and pad header/rows to one rectangular width table."""
    rows = [list(map(str, row)) for row in rows]
    header = list(map(str, header))
    columns = max([len(header)] + [len(row) for row in rows]) if (header or rows) else 0
    header += [""] * (columns - len(header))
    widths = [len(h) for h in header]
    for row in rows:
        row += [""] * (columns - len(row))
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    return header, rows, widths


def format_table(header: Sequence[str], rows: Iterable[Sequence[str]],
                 title: Optional[str] = None) -> str:
    """Render rows with aligned, space-padded columns.

    Robust to empty row sets, empty headers and ragged rows (short rows are
    padded, long rows widen the table instead of overflowing it).
    """
    header, rows, widths = _normalize_rows(header, rows)
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_markdown_table(header: Sequence[str], rows: Iterable[Sequence[str]],
                          ) -> str:
    """Render header/rows as a GitHub-flavoured markdown table (same
    padding/raggedness rules as :func:`format_table`)."""
    header, rows, widths = _normalize_rows(header, rows)
    if not header:
        return ""

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)) + " |"

    lines = [line(header),
             "| " + " | ".join("-" * widths[i] for i in range(len(header))) + " |"]
    lines.extend(line(row) for row in rows)
    return "\n".join(lines)


def table1_rows(library: Library) -> Tuple[List[str], List[List[str]]]:
    """Paper Table 1: area/delay points of the 8x8 multiplier and 16-bit adder."""
    header = ["resource", "metric"] + [f"g{i}" for i in range(6)]
    rows: List[List[str]] = []
    for label, kind, width in (("Mul 8*8bit", OpKind.MUL, 8),
                               ("Add 16bit", OpKind.ADD, 16)):
        points = library.tradeoff_table(kind, width)
        rows.append([label, "delay(ps)"] + [f"{delay:.0f}" for delay, _ in points])
        rows.append([label, "area"] + [f"{area:.0f}" for _, area in points])
    return header, rows


def table2_rows(case1: FlowResult, case2: FlowResult, slack: FlowResult,
                ) -> Tuple[List[str], List[List[str]]]:
    """Paper Table 2: the three interpolation scheduling strategies."""
    header = ["Impl.", "FU area", "total area", "mults", "adders", "meets timing"]

    def row(label: str, result: FlowResult) -> List[str]:
        mults = sum(1 for i in result.datapath.binding.instances
                    if i.class_key[0] == "mul")
        adders = sum(1 for i in result.datapath.binding.instances
                     if i.class_key[0] in ("add", "sub"))
        return [
            label,
            fmt_metric(result.datapath.binding.total_fu_area(), ".0f"),
            fmt_metric(result.total_area, ".0f"),
            str(mults),
            str(adders),
            "yes" if result.meets_timing else "no",
        ]

    return header, [
        row("Case1 (fastest+ASAP)", case1),
        row("Case2 (slowest+upgrade)", case2),
        row("Slack-based", slack),
    ]


def table4_rows(dse_result) -> Tuple[List[str], List[List[str]]]:
    """Paper Table 4: per-design-point areas and savings.

    An empty sweep renders as a header-only table (the average of zero
    points is undefined, so no Average row is emitted — previously this
    raised); non-finite areas/savings from failed points render as ``n/a``.
    """
    header = ["Des", "latency", "II", "A_conv", "A_slack", "Save %"]
    rows = []
    for entry in dse_result.entries:
        # Pipelined entries carry the *achieved* II (MII-derived, possibly
        # bumped past the point's request) in the flow details; block-mode
        # entries fall back to the point's declared interval.
        flow = getattr(entry, "slack_based", None)
        details = getattr(flow, "details", None) or {}
        ii = details.get("initiation_interval", entry.point.pipeline_ii)
        rows.append([
            entry.point.name,
            str(entry.point.latency),
            str(ii or "-"),
            fmt_metric(entry.area_conventional, ".0f"),
            fmt_metric(entry.area_slack, ".0f"),
            fmt_metric(entry.saving_percent, ".1f"),
        ])
    if dse_result.entries:
        rows.append(["Average", "", "", "", "",
                     fmt_metric(dse_result.average_saving_percent(), ".1f")])
    return header, rows


def table5_rows(conventional_seconds: float, slack_seconds: float,
                bellman_ford_seconds: float) -> Tuple[List[str], List[List[str]]]:
    """Paper Table 5: relative scheduling execution times.

    With a non-positive or non-finite baseline the row degrades to
    absolute seconds (including the baseline cell itself, so a broken
    measurement is never disguised as a clean ``1.00`` ratio), and
    non-finite measurements render as ``n/a`` rather than ``nan``.
    """
    header = ["Conventional", "Sequential slack based", "Bellman-Ford based"]
    baseline_valid = (math.isfinite(conventional_seconds)
                      and conventional_seconds > 0)
    base = conventional_seconds if baseline_valid else 1.0
    rows = [[
        "1.00" if baseline_valid else fmt_metric(conventional_seconds, ".2f"),
        fmt_metric(slack_seconds / base, ".2f"),
        fmt_metric(bellman_ford_seconds / base, ".2f"),
    ]]
    return header, rows
