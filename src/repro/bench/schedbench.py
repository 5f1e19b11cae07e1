"""Scheduler-bound wall-clock benchmark: simulated events/sec.

The hot-path bench (:mod:`repro.bench.hotpath`) measures the vectorized
numeric pipeline; this one measures the *event loop* itself.  It builds
a synthetic 1000-node twin round protocol that is pure scheduler
traffic — token fan-out, per-fragment block delivery to a root
collector, barrier waves — with no numeric work, so wall time is
entirely command dispatch and event-heap traffic.

The same protocol runs twice:

* **per-event baseline** — :class:`~repro.ipc.Scheduler` with one
  ``Send``/``Recv`` command per fragment and token;
* **batched** — :class:`~repro.ipc.BatchedScheduler` with ``SendMany``
  token/fragment enqueues and a ``DrainReady`` collector, the shape the
  middleware's transport uses.

Both modes simulate the *identical* logical event stream (equal final
simulated times, equal per-phase event counts), so events/sec is
computed against one shared logical-event denominator and the speedup
is a pure event-loop win.  Results merge into ``BENCH_hotpath.json``
(``scheduler`` / ``sched-smoke`` entries) and gate in CI.
"""

from __future__ import annotations

import platform
import time
from typing import Dict, Optional

from ..errors import BenchmarkError
from ..ipc import (Barrier, BatchedScheduler, Channel, DrainReady, Recv,
                   Scheduler, Send, SendMany, Sleep, WaitBarrier)

#: Default twin shape: 1000 nodes x 48 edge-block fragments per round.
#: Each fragment stands for an edge block of ~125 simulated edges, so
#: the twin models a 6M-edge graph (the ROADMAP's 100x-scale target)
#: while the bench itself stays pure control flow.
DEFAULT_NODES = 1_000
DEFAULT_FRAGMENTS = 48
DEFAULT_ROUNDS = 5
EDGES_PER_FRAGMENT = 125


def _twin(sched_cls, nodes: int, fragments: int, rounds: int,
          batched: bool):
    """Run one twin protocol; returns the scheduler (for its counters)."""
    sched = sched_cls()
    frag_ch = Channel("frags", latency=0.05)
    token_ch = Channel("tokens", latency=0.05)
    bar = Barrier(nodes + 1, name="superstep")

    def node_proc(i):
        jitter = 1.0 + (i % 7) * 0.01
        # pre-build the block metadata so the timed loop is pure
        # scheduler traffic in both modes
        blocks_by_round = [[(i, r, f) for f in range(fragments)]
                           for r in range(rounds)]
        for r in range(rounds):
            yield Recv(token_ch)            # root's go-token
            yield Sleep(jitter, "compute")  # the compute window
            blocks = blocks_by_round[r]
            if batched:
                yield SendMany(frag_ch, blocks)
            else:
                for block in blocks:
                    yield Send(frag_ch, block)
            yield WaitBarrier(bar)

    def root_proc():
        for r in range(rounds):
            if batched:
                yield SendMany(token_ch, [r] * nodes)
                need = nodes * fragments
                while need > 0:
                    got = yield DrainReady(frag_ch)
                    need -= len(got)
            else:
                for _ in range(nodes):
                    yield Send(token_ch, r)
                for _ in range(nodes * fragments):
                    yield Recv(frag_ch)
            yield WaitBarrier(bar)

    for i in range(nodes):
        sched.spawn(node_proc(i), name=f"node{i}")
    sched.spawn(root_proc(), name="root")
    sched.run()
    return sched


def run_scheduler_bench(nodes: int = DEFAULT_NODES,
                        fragments: int = DEFAULT_FRAGMENTS,
                        rounds: int = DEFAULT_ROUNDS,
                        repeats: int = 1) -> Dict:
    """Run the scheduler bench; returns a ``BENCH_hotpath.json`` payload.

    ``repeats`` re-runs each mode and keeps the fastest wall time.
    """
    if nodes < 1 or fragments < 1 or rounds < 1:
        raise BenchmarkError(
            f"scheduler bench needs positive sizes, got nodes={nodes} "
            f"fragments={fragments} rounds={rounds}")
    if repeats < 1:
        raise BenchmarkError(f"repeats must be >= 1, got {repeats}")

    modes = {}
    for label, sched_cls, batched in (
            ("per_event", Scheduler, False),
            ("batched", BatchedScheduler, True)):
        best: Optional[Dict] = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            sched = _twin(sched_cls, nodes, fragments, rounds, batched)
            wall_s = time.perf_counter() - t0
            row = {
                "wall_s": wall_s,
                "events_popped": sched.events_popped,
                "batches": sched.batches,
                "max_batch": sched.max_batch,
                "heap_peak": sched.heap_peak,
                "simulated_ms": sched.clock.now,
            }
            if best is None or row["wall_s"] < best["wall_s"]:
                best = row
        modes[label] = best

    if modes["per_event"]["simulated_ms"] != modes["batched"]["simulated_ms"]:
        raise BenchmarkError(
            "batched scheduler diverged from the per-event oracle: "
            f"{modes['batched']['simulated_ms']} != "
            f"{modes['per_event']['simulated_ms']} simulated ms")

    # one shared logical-event denominator: the oracle's popped events
    logical = modes["per_event"]["events_popped"]
    for row in modes.values():
        row["events_per_sec"] = (logical / row["wall_s"]
                                 if row["wall_s"] > 0 else float("inf"))
    speedup = (modes["per_event"]["wall_s"] / modes["batched"]["wall_s"]
               if modes["batched"]["wall_s"] > 0 else float("inf"))

    # logical events per protocol phase (identical in both modes)
    phase_events = {
        "spawn": nodes + 1,
        "token_delivery": nodes * rounds,
        "compute_wake": nodes * rounds,
        "fragment_delivery": nodes * fragments * rounds,
        "barrier_wake": nodes * rounds,
    }
    return {
        "bench": "scheduler",
        "params": {
            "nodes": nodes,
            "fragments": fragments,
            "rounds": rounds,
            "twin_edges": nodes * fragments * EDGES_PER_FRAGMENT,
            "repeats": repeats,
        },
        "env": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": modes,
        "phase_events": phase_events,
        "aggregate": {
            "logical_events": logical,
            "wall_s": modes["batched"]["wall_s"],
            "events_per_sec": modes["batched"]["events_per_sec"],
            "speedup_vs_per_event": round(speedup, 2),
        },
    }


def format_scheduler_report(payload: Dict) -> list:
    """Human-readable lines for one scheduler bench payload."""
    p = payload["params"]
    lines = [
        f"scheduler bench: {p['nodes']} nodes x {p['fragments']} "
        f"fragments x {p['rounds']} rounds "
        f"(~{p['twin_edges']:,} twin edges)"]
    for label, row in payload["results"].items():
        lines.append(
            f"  {label:10s} {row['events_per_sec']:>12,.0f} events/s  "
            f"wall={row['wall_s']:.3f}s  batches={row['batches']:,}  "
            f"max_cohort={row['max_batch']}  heap_peak={row['heap_peak']}")
    agg = payload["aggregate"]
    lines.append(
        f"  {'aggregate':10s} {agg['events_per_sec']:>12,.0f} events/s  "
        f"({agg['speedup_vs_per_event']}x vs per-event)")
    for phase, count in payload["phase_events"].items():
        lines.append(f"    phase {phase:18s} {count:>10,} events")
    return lines
