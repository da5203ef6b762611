"""Per-layer tracing for the traced benchmark run.

The benchmark never edits the program to trace it.  Instead :func:`install`
wraps each layer's public function (or method) and rebinds the wrapper at
every import site: the defining module *and* every ``repro.*`` module (and
the benchmark's ``suite``) that did ``from <module> import <name>``.  A
method is wrapped on its class.  Each wrapped call appends one
:class:`Span` to an in-memory list; the spans are written out once, when the
run ends (:meth:`Tracer.dump`).

:func:`layer_metrics` turns the spans, plus the program's own cache
counters, into the flat per-layer metric table of ``BENCHMARK.json``.  A
span's *self time* is its duration minus the durations of its direct child
spans, so the self times of a span tree partition the root's duration.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from stats import ratio


class Span:
    """One wrapped call: name, interval, parent span and the unit it served."""

    __slots__ = ("name", "start", "end", "parent", "unit", "value", "raised")

    def __init__(self, name: str, parent: int, unit: Optional[str]):
        self.name = name
        self.parent = parent
        self.unit = unit
        self.start = 0.0
        self.end = 0.0
        self.value = None
        self.raised = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "unit": self.unit,
                "value": self.value, "raised": self.raised}


class Tracer:
    """Collects spans in memory.  ``unit`` labels the point or job in flight."""

    def __init__(self):
        self.spans: List[Span] = []
        self.unit: Optional[str] = None
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``observe(args, kwargs,
        result)`` may attach a number to the span (a count the call did)."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.unit)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = clock()
                span.raised = True
                raise
            finally:
                stack.pop()
            span.end = clock()
            if observe is not None:
                span.value = observe(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def _iterations(args, kwargs, result):
    return result.iterations


def _success(args, kwargs, result):
    return 1 if result.success else 0


def _edges(args, kwargs, result):
    return result.num_edges


def _downgrades(args, kwargs, result):
    return result.downgrades


def _ii_bumps(args, kwargs, result):
    return len(result[3].ii_bumps)


#: ``(module, attribute, span name, observer)``.  An attribute ``A.b`` is
#: method ``b`` of class ``A``; a plain name is a module-level function.
WRAPPED: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.lib.tsmc90", "tsmc90_library", "lib.tsmc90_library", None),
    ("repro.flows.sweep.session", "SweepSession.evaluate",
     "flows.sweep.evaluate", None),
    ("repro.flows.conventional", "conventional_flow", "flows.conventional",
     None),
    ("repro.flows.slack_based", "slack_based_flow", "flows.slack_based", None),
    ("repro.core.slack_scheduler", "SlackScheduler.run",
     "core.slack_scheduler.run", None),
    ("repro.core.budgeting", "budget_slack", "core.budgeting.budget_slack",
     _iterations),
    ("repro.core.analysis_cache", "AnalysisCache.pinned_spans_and_timed",
     "core.analysis_cache.pinned_spans_and_timed", None),
    ("repro.core.opspan", "OperationSpans.__init__",
     "core.opspan.OperationSpans", None),
    ("repro.core.timed_dfg", "build_timed_dfg",
     "core.timed_dfg.build_timed_dfg", _edges),
    ("repro.sched.list_scheduler", "try_list_schedule",
     "sched.list_scheduler.try_list_schedule", _success),
    ("repro.sched.relaxation", "schedule_with_relaxation",
     "sched.relaxation.schedule_with_relaxation", _ii_bumps),
    ("repro.sched.relaxation", "upgrade_for_timing",
     "sched.relaxation.upgrade_for_timing", None),
    ("repro.sched.modulo_scheduler", "try_modulo_schedule",
     "sched.modulo_scheduler.try_modulo_schedule", _success),
    ("repro.sched.modulo_scheduler", "compute_mii",
     "sched.modulo_scheduler.compute_mii", None),
    ("repro.rtl.datapath", "build_datapath", "rtl.datapath.build_datapath",
     None),
    ("repro.rtl.area_recovery", "recover_area",
     "rtl.area_recovery.recover_area", _downgrades),
    ("repro.rtl.timing", "analyze_state_timing",
     "rtl.timing.analyze_state_timing", None),
    ("repro.rtl.area", "area_report", "rtl.report", None),
    ("repro.rtl.power", "power_report", "rtl.report", None),
    ("repro.serve.queue", "JobQueue.submit", "serve.queue.submit", None),
    ("repro.serve.queue", "JobQueue.claim", "serve.queue.claim", None),
    ("repro.serve.queue", "JobQueue.finish", "serve.queue.finish", None),
    ("repro.serve.cache", "MemoCache.lookup", "serve.cache.lookup", None),
    ("repro.serve.cache", "MemoCache.record", "serve.cache.record", None),
    ("repro.core.jsonl", "append_records", "core.jsonl.append_records", None),
)


#: Modules whose imported names are rebound: the program and the
#: benchmark's own workload module.
SITES = ("repro", "suite")


def install(tracer: Tracer,
            wrapped: Sequence[Tuple[str, str, str, Optional[Callable]]] = WRAPPED,
            ) -> Callable[[], None]:
    """Wrap every entry of ``wrapped``; returns a function that undoes it."""
    undo: List[Tuple[object, str, object]] = []
    for module_name, attribute, name, observe in wrapped:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            undo.append((owner, method, original))
            setattr(owner, method, tracer.wrap(name, original, observe))
            continue
        original = getattr(module, attribute)
        traced = tracer.wrap(name, original, observe)
        # Rebind at every import site, not only in the defining module.
        for site in list(sys.modules.values()):
            if not getattr(site, "__name__", "").startswith(SITES):
                continue
            for key, value in list(vars(site).items()):
                if value is original:
                    undo.append((site, key, original))
                    setattr(site, key, traced)

    def uninstall() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


def span_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive ``s``, ``self_s``, ``failed_s`` (time
    in calls that raised) and ``value``, the sum of the observed counts."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "failed_s": 0.0,
                 "value": 0.0})
    for index, span in enumerate(spans):
        entry = totals[span.name]
        entry["calls"] += 1
        entry["s"] += span.duration
        entry["self_s"] += span.duration - child_time[index]
        if span.raised:
            entry["failed_s"] += span.duration
        if span.value is not None:
            entry["value"] += span.value
    return totals


def _children_of(spans: Sequence[Span], child: str, parent: str) -> int:
    return sum(1 for span in spans
               if span.name == child and span.parent >= 0
               and spans[span.parent].name == parent)


def _hit_ratio(table: Dict[str, int]) -> float:
    return ratio(table["hits"], table["hits"] + table["misses"])


def layer_metrics(spans: Sequence[Span], caches: Dict[str, Dict],
                  repeat_structure_ratio: float) -> Dict[str, float]:
    """The per-layer metric table of one traced run.

    ``caches`` is :func:`repro.obs.metrics.cache_stats` taken at the end of
    the run; ``repeat_structure_ratio`` is the sweep session's share of
    points that reused an already-seen design structure (0 without a
    session).
    """
    totals = span_totals(spans)

    def get(name: str, field: str) -> float:
        return totals[name][field] if name in totals else 0.0

    analysis = caches["analysis_cache"]
    serve = caches["serve"]
    list_calls = get("sched.list_scheduler.try_list_schedule", "calls")
    modulo_calls = get("sched.modulo_scheduler.try_modulo_schedule", "calls")
    run = "core.slack_scheduler.run"
    return {
        f"{run}.calls": get(run, "calls"),
        f"{run}.s": get(run, "s"),
        f"{run}.failed_s": get(run, "failed_s"),
        "core.slack_scheduler.relaxation_attempts": _children_of(
            spans, "sched.list_scheduler.try_list_schedule", run),
        "core.slack_scheduler.rebudgets": _children_of(
            spans, "core.budgeting.budget_slack",
            "sched.list_scheduler.try_list_schedule"),
        "core.budgeting.budget_slack.calls":
            get("core.budgeting.budget_slack", "calls"),
        "core.budgeting.budget_slack.self_s":
            get("core.budgeting.budget_slack", "self_s"),
        "core.budgeting.budget_slack.iterations":
            get("core.budgeting.budget_slack", "value"),
        "core.analysis_cache.pinned_spans_and_timed.calls":
            get("core.analysis_cache.pinned_spans_and_timed", "calls"),
        "core.analysis_cache.pinned_spans_and_timed.s":
            get("core.analysis_cache.pinned_spans_and_timed", "s"),
        "core.analysis_cache.pinned_spans_and_timed.hit_ratio":
            _hit_ratio(analysis["spans"]),
        "core.analysis_cache.sequential_slack.hit_ratio":
            _hit_ratio(analysis["sequential_slack"]),
        "core.analysis_cache.artifacts.hit_ratio":
            _hit_ratio(analysis["artifacts"]),
        "core.opspan.OperationSpans.builds":
            get("core.opspan.OperationSpans", "calls"),
        "core.opspan.OperationSpans.s":
            get("core.opspan.OperationSpans", "s"),
        "core.timed_dfg.build_timed_dfg.calls":
            get("core.timed_dfg.build_timed_dfg", "calls"),
        "core.timed_dfg.build_timed_dfg.s":
            get("core.timed_dfg.build_timed_dfg", "s"),
        "core.timed_dfg.build_timed_dfg.edges_built":
            get("core.timed_dfg.build_timed_dfg", "value"),
        "core.delta_slack.evaluators": analysis["delta_evaluators"],
        "core.delta_slack.updates": analysis["delta_updates"],
        "core.delta_slack.seed_hit_ratio": _hit_ratio(caches["delta_seeds"]),
        "sched.list_scheduler.try_list_schedule.calls": list_calls,
        "sched.list_scheduler.try_list_schedule.self_s":
            get("sched.list_scheduler.try_list_schedule", "self_s"),
        "sched.list_scheduler.try_list_schedule.success_ratio": ratio(
            get("sched.list_scheduler.try_list_schedule", "value"),
            list_calls),
        "sched.relaxation.schedule_with_relaxation.calls":
            get("sched.relaxation.schedule_with_relaxation", "calls"),
        "sched.relaxation.schedule_with_relaxation.s":
            get("sched.relaxation.schedule_with_relaxation", "s"),
        "sched.relaxation.upgrade_for_timing.calls":
            get("sched.relaxation.upgrade_for_timing", "calls"),
        "sched.modulo_scheduler.try_modulo_schedule.calls": modulo_calls,
        "sched.modulo_scheduler.try_modulo_schedule.self_s":
            get("sched.modulo_scheduler.try_modulo_schedule", "self_s"),
        "sched.modulo_scheduler.try_modulo_schedule.success_ratio": ratio(
            get("sched.modulo_scheduler.try_modulo_schedule", "value"),
            modulo_calls),
        "sched.modulo_scheduler.compute_mii.s":
            get("sched.modulo_scheduler.compute_mii", "s"),
        "sched.modulo_scheduler.ii_bumps":
            get("sched.relaxation.schedule_with_relaxation", "value"),
        "rtl.datapath.build_datapath.s": get("rtl.datapath.build_datapath", "s"),
        "rtl.area_recovery.recover_area.s":
            get("rtl.area_recovery.recover_area", "s"),
        "rtl.area_recovery.recover_area.downgrades":
            get("rtl.area_recovery.recover_area", "value"),
        "rtl.timing.analyze_state_timing.s":
            get("rtl.timing.analyze_state_timing", "s"),
        "rtl.report.s": get("rtl.report", "s"),
        "flows.sweep.evaluate.self_s": get("flows.sweep.evaluate", "self_s"),
        "flows.sweep.repeat_structure_ratio": repeat_structure_ratio,
        "flows.conventional.s": get("flows.conventional", "s"),
        "flows.slack_based.s": get("flows.slack_based", "s"),
        "serve.queue.submit.s": get("serve.queue.submit", "s"),
        "serve.queue.claim.s": get("serve.queue.claim", "s"),
        "serve.queue.finish.s": get("serve.queue.finish", "s"),
        "serve.cache.lookup.s": get("serve.cache.lookup", "s"),
        "serve.cache.record.s": get("serve.cache.record", "s"),
        "serve.cache.hit_ratio": _hit_ratio(serve),
        "core.jsonl.append_records.calls":
            get("core.jsonl.append_records", "calls"),
        "core.jsonl.append_records.s": get("core.jsonl.append_records", "s"),
        "lib.tsmc90_library.s": get("lib.tsmc90_library", "s"),
    }
