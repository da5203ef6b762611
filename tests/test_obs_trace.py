"""Tests of the hierarchical span tracer (repro.obs.trace)."""

import threading

import pytest

from repro.obs.trace import (
    Span,
    Tracer,
    active_tracer,
    disable,
    enable,
    enclosing_attr,
    is_enabled,
    span,
    traced,
    tracing,
)
from repro.obs.trace import _NULL_SPAN


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    disable()
    yield
    disable()


# -- Span data model ---------------------------------------------------------------


def test_span_duration_and_self_time_partition():
    root = Span("root", start=0.0, end=10.0)
    root.children = [Span("a", start=1.0, end=4.0),
                     Span("b", start=4.0, end=9.0)]
    assert root.duration == 10.0
    assert root.self_time == pytest.approx(2.0)
    # Self times over the whole tree partition the root duration exactly.
    assert sum(s.self_time for s in root.walk()) == pytest.approx(root.duration)


def test_self_time_is_clamped_at_zero():
    weird = Span("w", start=0.0, end=1.0)
    weird.children = [Span("c1", start=0.0, end=1.0),
                      Span("c2", start=0.0, end=1.0)]
    assert weird.self_time == 0.0
    backwards = Span("b", start=5.0, end=3.0)
    assert backwards.duration == 0.0


def test_span_dict_roundtrip_preserves_tree():
    root = Span("root", attrs={"design": "idct"}, start=0.0, end=2.0,
                track="main")
    child = Span("child", attrs={"n": 3}, start=0.5, end=1.5, track="main")
    root.children.append(child)
    rebuilt = Span.from_dict(root.to_dict())
    assert rebuilt.to_dict() == root.to_dict()
    assert rebuilt.children[0].attrs == {"n": 3}


def test_set_updates_attrs_and_chains():
    s = Span("s")
    assert s.set(a=1).set(b=2) is s
    assert s.attrs == {"a": 1, "b": 2}


# -- enable/disable fast path ------------------------------------------------------


def test_disabled_span_is_the_shared_noop_singleton():
    assert not is_enabled()
    assert span("anything", attr=1) is _NULL_SPAN
    assert span("other") is _NULL_SPAN  # no allocation per call
    with span("scope") as scoped:
        assert scoped is _NULL_SPAN
        scoped.set(ignored=True)  # no-op, no error


def test_enable_records_and_disable_returns_the_tracer():
    tracer = enable()
    assert is_enabled() and active_tracer() is tracer
    with span("work", kind="test"):
        pass
    assert [root.name for root in tracer.roots] == ["work"]
    assert disable() is tracer
    assert not is_enabled()


def test_nested_spans_build_a_tree_in_order():
    with tracing() as tracer:
        with span("outer"):
            with span("first"):
                pass
            with span("second"):
                with span("inner"):
                    pass
    roots = tracer.roots
    assert [r.name for r in roots] == ["outer"]
    outer = roots[0]
    assert [c.name for c in outer.children] == ["first", "second"]
    assert [c.name for c in outer.children[1].children] == ["inner"]
    assert outer.duration >= sum(c.duration for c in outer.children)


def test_tracing_scope_restores_previous_tracer():
    outer_tracer = enable()
    with tracing() as inner_tracer:
        assert active_tracer() is inner_tracer
        with span("inner-work"):
            pass
    assert active_tracer() is outer_tracer
    assert [r.name for r in inner_tracer.roots] == ["inner-work"]
    assert outer_tracer.roots == []


def test_enclosing_attr_reads_the_innermost_open_span_that_has_it():
    assert enclosing_attr("flow") is None  # tracing disabled
    with tracing():
        with span("outer", flow="conventional", design="d"):
            with span("inner", flow="slack-based"):
                with span("leaf"):
                    assert enclosing_attr("flow") == "slack-based"
                    assert enclosing_attr("design") == "d"
                    assert enclosing_attr("missing") is None
            assert enclosing_attr("flow") == "conventional"
        assert enclosing_attr("flow") is None


def test_exception_is_recorded_and_propagates():
    with tracing() as tracer:
        with pytest.raises(ValueError):
            with span("failing"):
                raise ValueError("boom")
    (root,) = tracer.roots
    assert root.attrs["error"] == "ValueError"


def test_traced_decorator_uses_qualname_and_fast_path():
    @traced()
    def work(x):
        return x + 1

    assert work(1) == 2  # disabled: no tracer, plain call
    with tracing() as tracer:
        assert work(2) == 3
    (root,) = tracer.roots
    assert root.name.endswith("work")


def test_clear_drops_recorded_roots():
    with tracing() as tracer:
        with span("a"):
            pass
        tracer.clear()
        with span("b"):
            pass
    assert [r.name for r in tracer.roots] == ["b"]


# -- threads and adoption ----------------------------------------------------------


def test_threads_record_parallel_roots_with_their_track():
    tracer = Tracer()

    def worker():
        with tracer.span("thread-work"):
            pass

    threads = [threading.Thread(target=worker, name=f"wt{i}")
               for i in range(3)]
    with tracer.span("main-work"):
        pass
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    roots = tracer.roots
    assert len(roots) == 4
    tracks = {root.track for root in roots if root.name == "thread-work"}
    assert tracks == {"wt0", "wt1", "wt2"}


def test_adopt_grafts_serialised_trees_with_track_override():
    worker = Tracer()
    with worker.span("worker-root"):
        with worker.span("worker-child"):
            pass
    exported = worker.export()

    parent = Tracer()
    parent.adopt(exported, track="worker:P0")
    (root,) = parent.roots
    assert root.name == "worker-root"
    assert {s.track for s in root.walk()} == {"worker:P0"}
    assert [c.name for c in root.children] == ["worker-child"]


def test_mismatched_pop_unwinds_instead_of_corrupting():
    tracer = Tracer()
    outer = tracer.span("outer")
    inner = tracer.span("inner")
    outer.__enter__()
    inner.__enter__()
    # The instrumented frame leaked `inner` and popped `outer` directly.
    outer.__exit__(None, None, None)
    (root,) = tracer.roots
    assert root.name == "outer"
