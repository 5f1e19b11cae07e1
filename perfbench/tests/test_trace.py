"""The span recorder and the numbers derived from spans."""

from __future__ import annotations

import threading

from perfbench.trace import (END, OP, START, StepperProxy, Totals, Tracer,
                             check_spans, covered_seconds, self_times)


def _span(name, start, end, parent=-1, op=None):
    return [name, start, end, parent, op]


def test_wrap_nests_and_carries_the_op():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + inner())
    tracer.op = "job-1"
    assert outer() == 2
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert {s[OP] for s in tracer.spans} == {"job-1"}
    assert check_spans(tracer.spans) == []
    assert all(t >= 0 for t in self_times(tracer.spans))


def test_wrap_closes_the_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")
    try:
        tracer.wrap("boom", boom)()
    except ValueError:
        pass
    assert tracer.spans[0][END] >= tracer.spans[0][START]
    assert tracer.wrap("after", lambda: 0)() == 0
    assert tracer.spans[1][3] == -1      # the stack was unwound


def test_threads_keep_their_own_stacks():
    tracer = Tracer()
    work = tracer.wrap("work", lambda: None)

    def body():
        for _ in range(200):
            work()
    threads = [threading.Thread(target=body) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert len(tracer.spans) == 800
    assert check_spans(tracer.spans) == []


def test_stepper_proxy_times_every_resumption():
    def gen():
        yield 1
        yield 2
        return "done"
    tracer = Tracer()
    proxy = StepperProxy(gen(), tracer, "step")
    assert next(proxy) == 1 and next(proxy) == 2
    try:
        next(proxy)
    except StopIteration as stop:
        assert stop.value == "done"
    assert [s[0] for s in tracer.spans] == ["step"] * 3


def test_totals_do_not_count_a_name_twice_and_skip_references():
    spans = [
        _span("a", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),        # nested same name: not inclusive
        _span("b", 5.0, 7.0, 0),
        _span("reference", 20.0, 30.0),
        _span("b", 21.0, 29.0, 3),      # the benchmark checking: ignored
    ]
    totals = Totals([spans])
    assert totals.seconds("a") == 10.0
    assert totals.count("a") == 2
    assert totals.self_seconds("a") == 10.0 - 2.0
    assert totals.seconds("b") == 2.0 and totals.count("b") == 1


def test_covered_seconds_is_a_union_clipped_to_the_windows():
    bench = [_span("job", 0.0, 10.0), _span("x", 1.0, 3.0, 0)]
    server = [_span("serve.wire.serve", 0.0, 10.0),
              _span("y", 2.0, 5.0, 0), _span("z", 8.0, 12.0, 0)]
    assert covered_seconds([bench, server], [(0.0, 10.0)]) == 4.0 + 2.0
    assert covered_seconds([bench, server], [(0.0, 2.5), (9.0, 10.0)]) == 2.5


def test_check_spans_reports_broken_trees():
    assert check_spans([_span("a", 0, 1, 5)])
    assert check_spans([_span("a", 0, 1), _span("b", 0.5, 2, 0)])
    assert check_spans([_span("a", 0, 1, -1, "j1"),
                        _span("b", 0.2, 0.4, 0, "j2")])
    assert check_spans([_span("job", 0, 1, -1, "j"),
                        _span("job", 2, 3, -1, "j")])
    assert check_spans([_span("a", 0, 1), _span("b", 0, 0.8, 0),
                        _span("c", 0.1, 0.9, 0)])    # negative self time
