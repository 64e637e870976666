"""Self-time arithmetic and wrapper lifetime of the benchmark's tracer."""

from __future__ import annotations

import threading
import types

import pytest

from perfbench.spans import (
    Span,
    Tracer,
    adopt_across_threads,
    covered,
    layer_totals,
    select,
    self_times,
)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([(5.0, 6.0), (1.0, 2.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(1.0, 9.0), (2.0, 3.0)], 0.0, 10.0) == pytest.approx(8.0)


def test_self_time_of_synthetic_nested_spans():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 9.0, parent=0),
        Span("a.child", 2.0, 3.0, parent=1),
        Span("b.child", 5.0, 6.0, parent=2),
        Span("b.child", 7.0, 9.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0])
    # Self times partition the root's duration exactly.
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_layer_totals_sum_calls_times_and_counters():
    spans = [
        Span("engine", 0.0, 4.0),
        Span("alignment", 0.0, 1.0, parent=0, counts={"rows": 3}),
        Span("alignment", 2.0, 3.5, parent=0, counts={"rows": 5}),
    ]
    totals = layer_totals(spans)
    assert totals["alignment"]["calls"] == 2
    assert totals["alignment"]["rows"] == 8
    assert totals["alignment"]["total_s"] == pytest.approx(2.5)
    assert totals["engine"]["self_s"] == pytest.approx(1.5)


def test_select_keeps_whole_runs_and_renumbers_parents():
    spans = [
        Span("rep", 0.0, 4.0, run="rep0"),
        Span("rep", 5.0, 8.0, run="rep1"),
        Span("work", 5.5, 6.0, parent=1, run="rep1"),
        Span("work", 1.0, 2.0, parent=0, run="rep0"),
    ]
    kept = select(spans, {"rep1"})
    assert [(s.name, s.parent) for s in kept] == [("rep", None), ("work", 0)]
    assert self_times(kept) == pytest.approx([2.5, 0.5])


def test_spans_nest_per_thread_and_carry_the_run_id():
    tracer = Tracer()
    tracer.run = "main"
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass

        def worker():
            tracer.run = "worker"
            with tracer.span("other-thread"):
                pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == tracer.spans.index(by_name["outer"])
    assert by_name["outer"].parent is None
    assert by_name["other-thread"].parent is None
    assert by_name["other-thread"].run == "worker"
    assert by_name["inner"].run == "main"


def test_a_span_opened_before_its_run_id_takes_the_id_set_inside_it():
    tracer = Tracer()
    with tracer.span("handler"):
        tracer.run = "request-7"
        with tracer.span("work"):
            pass
    handler, work = tracer.spans
    assert handler.run == work.run == "request-7"


def test_adopt_hangs_a_server_thread_tree_under_the_client_span():
    spans = [
        Span("client", 0.0, 10.0, run="r1"),
        Span("decode", 8.0, 9.0, parent=0, run="r1"),
        Span("handler", 2.0, 7.0, run="r1"),  # another thread's root
        Span("store", 3.0, 5.0, parent=2, run="r1"),
        Span("client", 11.0, 12.0, run="r2"),
        Span("worker", 4.0, 6.0, run="key:x"),  # a run of its own
        Span("late", 10.5, 11.0, run="r1"),  # outside the client span
    ]
    linked = adopt_across_threads(spans)
    assert [s.parent for s in linked] == [None, 0, 0, 2, None, None, None]
    assert spans[2].parent is None  # the input is left as it was
    own = self_times(linked)
    assert own[:4] == pytest.approx([4.0, 1.0, 3.0, 2.0])
    assert sum(own[:4]) == pytest.approx(linked[0].duration)


def _module():
    module = types.SimpleNamespace()
    module.square = lambda x: x * x

    def count_up(n):
        yield from range(n)

    module.count_up = count_up
    return module


def test_patch_records_counters_and_generator_items():
    module = _module()
    tracer = Tracer()
    tracer.patch(module, "square", "sq", counts=lambda r, x: {"value": r})
    tracer.patch(module, "count_up", "gen")
    assert module.square(3) == 9
    assert list(module.count_up(3)) == [0, 1, 2]
    totals = layer_totals(tracer.spans)
    assert totals["sq"]["value"] == 9
    # One span per produced item plus the final exhausted step.
    assert totals["gen"]["items"] == 3
    assert totals["gen"]["calls"] == 4


def test_restore_puts_back_own_and_inherited_attributes():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    module = _module()
    original = module.square
    tracer = Tracer()
    tracer.patch(module, "square", "sq")
    tracer.patch(Child, "run", "child.run")
    assert module.square is not original
    assert "run" in vars(Child)
    assert Child().run() == "base"
    tracer.restore()
    assert module.square is original
    assert "run" not in vars(Child)
    before = len(tracer.spans)
    module.square(2)
    Child().run()
    assert len(tracer.spans) == before


def test_context_patch_covers_the_with_block():
    import contextlib

    class Store:
        @contextlib.contextmanager
        def lease(self, key):
            yield key

    tracer = Tracer()
    tracer.patch(Store, "lease", "lease", run=lambda s, k: f"key:{k}",
                 context=True)
    with Store().lease("k1") as value:
        with tracer.span("work"):
            pass
    tracer.restore()
    assert value == "k1"
    lease, work = tracer.spans
    assert lease.run == "key:k1"
    assert work.parent == 0


def test_a_raising_call_closes_its_span_and_propagates():
    module = types.SimpleNamespace()

    def fail(x):
        raise KeyError(x)

    module.fail = fail
    tracer = Tracer()
    tracer.patch(module, "fail", "fail", counts=lambda r, x: {"n": len(r)})
    with tracer.span("outer"):
        with pytest.raises(KeyError):
            module.fail(1)
    outer, failed = tracer.spans
    assert failed.parent == 0 and failed.end >= failed.start
    assert failed.counts == {}
    assert outer.parent is None
