"""Hierarchical span tracing with a disabled-by-default fast path.

A *span* is one timed region of work — a flow phase, a scheduled point, an
oracle run — with a name, free-form attributes, a wall-clock interval and
nested children.  Spans form trees: entering a span inside another makes it
a child, and a whole sweep traces as one forest of per-point trees.

Design constraints (these are the contract, not aspirations):

* **near-zero overhead when disabled** — the module-level :func:`span`
  helper reads one global and returns a shared no-op context manager when no
  tracer is installed; the instrumented hot paths in the flows and kernels
  pay one global load and one ``is None`` test per call site.  Nothing is
  allocated, no clock is read.
* **observation only** — no span, attribute or timing value ever feeds back
  into scheduling, budgeting or binding decisions.  Results with tracing
  enabled are byte-identical to results without it (the Table-4 golden
  metrics pin this).
* **thread-safe** — each thread keeps its own open-span stack
  (``threading.local``); finished root spans are appended to the tracer's
  shared list under a lock, tagged with the recording thread's track label.
* **mergeable across processes** — a span tree serialises to plain dicts
  (:meth:`Span.to_dict` / :meth:`Span.from_dict`), so the pool workers of
  ``SweepSession.run(points, workers=n)`` can trace locally and ship their
  trees back with the result payload for the parent tracer to
  :meth:`~Tracer.adopt`.

Use the :func:`span` context manager at the instrumentation site and
``with tracing() as tracer:`` to collect.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "span",
    "is_enabled",
    "active_tracer",
    "enclosing_attr",
    "tracing",
]


class Span:
    """One timed region: name, attributes, interval, nested children.

    ``start``/``end`` are :func:`time.perf_counter` values relative to the
    owning tracer's epoch (its creation instant), so a tree serialised on
    one process and adopted on another keeps consistent *relative* times
    within itself.
    """

    __slots__ = ("name", "attrs", "start", "end", "children", "track")

    def __init__(self, name: str, attrs: Optional[Dict[str, object]] = None,
                 start: float = 0.0, end: float = 0.0,
                 track: str = "main"):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.start = start
        self.end = end
        self.children: List["Span"] = []
        self.track = track

    @property
    def duration(self) -> float:
        return max(self.end - self.start, 0.0)

    @property
    def self_time(self) -> float:
        """Duration minus the summed duration of direct children.

        Clamped at zero: overlapping child clocks (only possible through
        hand-built trees) never produce negative self-time.
        """
        return max(self.duration - sum(c.duration for c in self.children), 0.0)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, children in order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def set(self, **attrs: object) -> "Span":
        """Attach attributes to an open (or finished) span."""
        self.attrs.update(attrs)
        return self

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe tree (recursive; children serialise in order)."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "start": self.start,
            "end": self.end,
            "track": self.track,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        span_obj = cls(
            name=str(data["name"]),
            attrs=dict(data.get("attrs", {})),  # type: ignore[arg-type]
            start=float(data["start"]),  # type: ignore[arg-type]
            end=float(data["end"]),  # type: ignore[arg-type]
            track=str(data.get("track", "main")),
        )
        span_obj.children = [cls.from_dict(child)
                             for child in data.get("children", [])]  # type: ignore[union-attr]
        return span_obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
                f"{len(self.children)} child(ren))")


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context manager recording one :class:`Span` on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span_obj: Span):
        self._tracer = tracer
        self._span = span_obj

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type: object, *exc_info: object) -> bool:
        if exc_type is not None:
            self._span.attrs.setdefault("error", getattr(exc_type, "__name__",
                                                         str(exc_type)))
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects span trees; one per profiling run (or per pool worker)."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._roots: List[Span] = []
        self._local = threading.local()

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: object) -> _OpenSpan:
        return _OpenSpan(self, Span(name, attrs,
                                    track=threading.current_thread().name))

    def _push(self, span_obj: Span) -> None:
        span_obj.start = time.perf_counter() - self.epoch
        self._stack().append(span_obj)

    def _pop(self, span_obj: Span) -> None:
        span_obj.end = time.perf_counter() - self.epoch
        stack = self._stack()
        # Tolerate a mismatched pop (an instrumented frame that leaked its
        # span) by unwinding to the matching entry instead of corrupting
        # the tree shape.
        while stack and stack[-1] is not span_obj:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(span_obj)
        else:
            with self._lock:
                self._roots.append(span_obj)

    # -- access ------------------------------------------------------------------

    @property
    def roots(self) -> List[Span]:
        """Finished root spans, in completion order (copy; safe to keep)."""
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()

    def export(self) -> List[Dict[str, object]]:
        """Every finished root span tree as JSON-safe dicts (for workers)."""
        return [root.to_dict() for root in self.roots]

    def adopt(self, trees: List[Dict[str, object]],
              track: Optional[str] = None) -> None:
        """Graft serialised span trees (e.g. from a pool worker) as roots.

        ``track`` overrides the track label of every adopted span so a
        Chrome-trace export shows each worker on its own row.  Adopted times
        stay relative to the *worker's* epoch — durations and self-times are
        exact; cross-process alignment is cosmetic and not attempted.
        """
        adopted = [Span.from_dict(tree) for tree in trees]
        if track is not None:
            for root in adopted:
                for span_obj in root.walk():
                    span_obj.track = track
        with self._lock:
            self._roots.extend(adopted)


# -- module-level switch ------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def is_enabled() -> bool:
    return _ACTIVE is not None


def active_tracer() -> Optional[Tracer]:
    return _ACTIVE


def enclosing_attr(key: str) -> object:
    """Attribute ``key`` of the innermost open span of this thread that has
    it, or ``None`` (always ``None`` while tracing is disabled).

    Lets a shared helper label its spans with its caller's context, e.g.
    the relaxation loop's ``sched.attempt`` spans with the flow of the
    enclosing ``flow.schedule`` span.
    """
    tracer = _ACTIVE
    if tracer is None:
        return None
    for open_span in reversed(tracer._stack()):
        if key in open_span.attrs:
            return open_span.attrs[key]
    return None


def span(name: str, **attrs: object):
    """A span context manager on the active tracer — or the shared no-op.

    This is the only function instrumentation sites call; the disabled path
    is one global read and one identity test.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


class tracing:
    """``with tracing() as tracer:`` — collect on a fresh :class:`Tracer`.

    The one switch: restores whatever tracer (or none) was active before
    the block, so nested profiling runs cannot clobber each other.
    """

    def __init__(self) -> None:
        self._tracer = Tracer()
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._tracer
        return self._tracer

    def __exit__(self, *exc_info: object) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False

