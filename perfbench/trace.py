"""In-memory span recorder and the analysis that turns spans into
per-layer numbers.

A span is ``[name, start, end, parent, op]``: ``parent`` is an index
into the same process's span list (-1 for a root) and ``op`` is the
job/operation id shared by every span of one job.  Starts and ends are
``time.perf_counter()`` readings — CLOCK_MONOTONIC on Linux, so spans
of the benchmark process and of its server subprocess share one
timeline and can be merged.

Spans are kept in memory and written out when the run ends; the
wrappers themselves live in :mod:`perfbench.layers`.
"""

from __future__ import annotations

import contextlib
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

NAME, START, END, PARENT, OP = range(5)

#: root spans: they delimit a job or a server's life and are not
#: themselves attribution (see ``unattributed_share``)
ROOT_NAMES = frozenset({"job", "reference", "serve.wire.serve"})


class Tracer:
    """Records spans; one instance per process."""

    def __init__(self, proc: str = "bench") -> None:
        self.proc = proc
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.local = threading.local()
        self._lock = threading.Lock()

    # -- per-thread context -------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    @property
    def op(self) -> Any:
        return getattr(self.local, "op", None)

    @op.setter
    def op(self, value: Any) -> None:
        self.local.op = value

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- recording ----------------------------------------------------------------------

    def begin(self, name: str) -> list:
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack().pop()

    def add(self, name: str, start: float, end: float, parent: int,
            op: Any) -> int:
        """Record a span measured by the caller; returns its index (a
        handle for children and for patching ``end``/``op`` later).
        For spans that overlap within one thread, which the call stack
        cannot describe — a client's jobs in flight."""
        with self._lock:
            self.spans.append([name, start, end, parent, op])
            return len(self.spans) - 1

    def wrap(self, name: str, fn: Callable, *,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span called ``name``.  ``before(tracer,
        args)`` runs ahead of the span; ``after(tracer, rec, args,
        result)`` runs once it closed (never on an exception)."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            rec = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            if after is not None:
                after(tracer, rec, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


@contextlib.contextmanager
def reference_span(tracer: Optional[Tracer]):
    """Mark what runs inside as the benchmark checking outputs: its
    spans (wrapped program calls included) stay out of every number.
    A no-op without a tracer."""
    if tracer is None:
        yield
        return
    rec = tracer.begin("reference")
    try:
        yield
    finally:
        tracer.end(rec)


class StepperProxy:
    """A generator stand-in that times every resumption as a span.

    ``run_stepwise`` returns a generator the caller drives with
    ``next()``; the work happens inside those resumptions, not inside
    the call that created it, so the proxy is what makes engine time
    visible from outside.
    """

    def __init__(self, gen, tracer: Tracer, name: str,
                 after: Optional[Callable] = None) -> None:
        self._gen = gen
        self._tracer = tracer
        self._name = name
        self._after = after

    def __iter__(self):
        return self

    def _resume(self, call: Callable, *args):
        rec = self._tracer.begin(self._name)
        try:
            result = call(*args)
        finally:
            self._tracer.end(rec)
        if self._after is not None:
            self._after(self._tracer, rec, args, result)
        return result

    def __next__(self):
        return self._resume(self._gen.__next__)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc):
        return self._gen.throw(*exc)

    def close(self):
        return self._gen.close()


# -- analysis -----------------------------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Per span: its duration minus its direct children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def check_spans(spans: List[list], eps: float = 1e-6) -> List[str]:
    """Well-formedness violations of one process's span list (empty
    when the tree is sound): parent exists and precedes its child, a
    child lies inside its parent, self times are non-negative, a span
    never carries another op than its parent's, and every ``job`` root
    carries its own op."""
    problems: List[str] = []
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            problems.append(f"span {i} {s[NAME]} ends before it starts")
        p = s[PARENT]
        if p == -1:
            continue
        if not 0 <= p < i:
            problems.append(f"span {i} {s[NAME]} has bad parent {p}")
            continue
        parent = spans[p]
        if s[START] < parent[START] - eps or s[END] > parent[END] + eps:
            problems.append(
                f"span {i} {s[NAME]} leaves its parent {parent[NAME]}")
        if None not in (parent[OP], s[OP]) and s[OP] != parent[OP]:
            problems.append(
                f"span {i} {s[NAME]} op {s[OP]!r} differs from its "
                f"parent's {parent[OP]!r}")
    if any("bad parent" in p for p in problems):
        return problems     # self times need a sound parent column
    for i, own in enumerate(self_times(spans)):
        if own < -eps:
            problems.append(f"span {i} {spans[i][NAME]} has negative "
                            f"self time {own:.6f}")
    job_ops = [s[OP] for s in spans if s[NAME] == "job"]
    if None in job_ops or len(set(job_ops)) != len(job_ops):
        problems.append("job root spans do not carry one distinct op each")
    return problems


class Totals:
    """Inclusive seconds, self seconds and call counts per span name.

    Inclusive time counts a span only when no ancestor bears the same
    name, so a wrapped method that calls its wrapped parent-class
    version is not counted twice.  Spans under a ``reference`` root are
    the benchmark checking outputs, not the program at work, and are
    left out.
    """

    def __init__(self, span_lists: Iterable[List[list]]) -> None:
        self.inclusive: Dict[str, float] = {}
        self.own: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.durations: Dict[str, List[float]] = {}
        for spans in span_lists:
            own = self_times(spans)
            skipped = set()
            for i, s in enumerate(spans):
                name = s[NAME]
                if name == "reference" or s[PARENT] in skipped:
                    skipped.add(i)
                    continue
                dur = s[END] - s[START]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.own[name] = self.own.get(name, 0.0) + own[i]
                self.durations.setdefault(name, []).append(dur)
                p = s[PARENT]
                while p >= 0 and spans[p][NAME] != name:
                    p = spans[p][PARENT]
                if p < 0:
                    self.inclusive[name] = \
                        self.inclusive.get(name, 0.0) + dur

    def seconds(self, *names: str) -> float:
        return sum(self.inclusive.get(n, 0.0) for n in names)

    def self_seconds(self, *names: str) -> float:
        return sum(self.own.get(n, 0.0) for n in names)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)


def covered_seconds(span_lists: Iterable[List[list]],
                    windows: List[Tuple[float, float]]) -> float:
    """Seconds of ``windows`` covered by at least one non-root span of
    any process (interval union on the shared clock)."""
    intervals = sorted(
        (s[START], s[END]) for spans in span_lists for s in spans
        if s[NAME] not in ROOT_NAMES and s[END] > s[START])
    merged: List[List[float]] = []
    for a, b in intervals:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    total = 0.0
    for w0, w1 in windows:
        for a, b in merged:
            lo, hi = max(a, w0), min(b, w1)
            if hi > lo:
                total += hi - lo
    return total


def span_cost_s(samples: int = 20_000) -> float:
    """Calibrated cost of recording one span (seconds), measured on a
    throw-away tracer — the basis of the overhead estimate."""
    tracer = Tracer("calibration")
    noop = tracer.wrap("noop", lambda: None)
    t0 = perf_counter()
    for _ in range(samples):
        noop()
    traced = perf_counter() - t0
    bare = (lambda: None)
    t0 = perf_counter()
    for _ in range(samples):
        bare()
    return max(traced - (perf_counter() - t0), 0.0) / samples
