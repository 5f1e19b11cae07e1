"""Scheduler-bound wall-clock benchmark: simulated events/sec.

The hot-path bench (:mod:`repro.bench.hotpath`) measures the vectorized
numeric pipeline; this one measures the *event loop* on the traffic the
middleware sends.  Each agent pass builds a fresh
:class:`~repro.ipc.Scheduler` and runs one agent-daemon pair -- every
cluster the figure runners and perfbench build has one device per
node -- through the pipeline-shuffle handshake of Algorithms 1-2 for
every block:
``ExchangeFinished`` -> the daemon rotates and answers
``RotateFinished`` -> the agent spawns an upload and a download thread
while the daemon computes -> ``ComputeFinished`` -> the agent joins
both threads and sends the next ``ExchangeFinished``.  There is no
numeric work, so wall time is command dispatch and event-heap traffic.

Every pass's simulated time must equal the lockstep pipeline makespan
(:func:`~repro.core.pipeline.pipeline_makespan_from_stage_times`) of
its stage times, so a scheduler change that moves an event fails the
bench.  Results merge into ``BENCH_hotpath.json`` (``scheduler`` /
``sched-smoke`` entries) and gate in CI.
"""

from __future__ import annotations

import platform
import time
from typing import Dict, List, Tuple

from ..core.pipeline import pipeline_makespan_from_stage_times
from ..errors import BenchmarkError
from ..ipc import Channel, Join, Recv, Scheduler, Send, Sleep, Spawn

_EXCHANGED, _ROTATED, _COMPUTED, _ALL_DONE = range(4)


def _stage_times(blocks: int) -> Tuple[List[float], ...]:
    """Per-block download / compute / upload ms: each stage leads some
    cycles."""
    return ([1.0 + (b % 3) * 0.5 for b in range(blocks)],
            [1.5] * blocks,
            [0.75 + (b % 2) * 0.5 for b in range(blocks)])


def _stage(ms: float, category: str):
    if ms:
        yield Sleep(ms, category)


def _daemon(to_daemon: Channel, to_agent: Channel, compute: List[float]):
    """Algorithm 1: rotate on every exchange, then compute the c-area
    block, until no block is left."""
    for ms in compute + [None]:
        yield Recv(to_daemon)
        yield Send(to_agent, _ROTATED)
        if ms is None:
            yield Send(to_agent, _ALL_DONE)
            return
        yield Sleep(ms, "compute")
        yield Send(to_agent, _COMPUTED)


def _agent(times: Tuple[List[float], ...]):
    """Algorithm 2: download the first block, then per rotation upload
    the previous result and download the next block while it computes."""
    download, compute, upload = times
    to_daemon = Channel("to_daemon")
    to_agent = Channel("to_agent")
    yield Spawn(_daemon(to_daemon, to_agent, compute),
                name="daemon", daemon=True)
    yield Sleep(download[0], "download")
    yield Send(to_daemon, _EXCHANGED)
    rotation = 0
    while True:
        msg = yield Recv(to_agent)
        if msg == _ROTATED:
            up = yield Spawn(_stage(
                upload[rotation - 1] if rotation else 0.0, "upload"))
            down = yield Spawn(_stage(
                download[rotation + 1] if rotation + 1 < len(download)
                else 0.0, "download"))
            rotation += 1
            continue
        yield Join(up)
        yield Join(down)
        if msg == _ALL_DONE:
            return
        yield Send(to_daemon, _EXCHANGED)


def _pass(times: Tuple[List[float], ...]) -> Scheduler:
    """One agent pass on a fresh scheduler; returns it for its counters."""
    sched = Scheduler()
    sched.spawn(_agent(times), name="agent->d0")
    expected = pipeline_makespan_from_stage_times(*times)
    if sched.run() != expected:
        raise BenchmarkError(
            f"pass ended at {sched.clock.now} simulated ms, not at the "
            f"pipeline makespan {expected}")
    return sched


def run_scheduler_bench(blocks: int, passes: int, repeats: int = 1) -> Dict:
    """Run the scheduler bench; returns a ``BENCH_hotpath.json`` payload.

    ``passes`` agent passes of ``blocks`` blocks each; ``repeats``
    re-runs the passes and keeps the fastest wall time.
    """
    if blocks < 1 or passes < 1:
        raise BenchmarkError(
            f"scheduler bench needs positive sizes, got blocks={blocks} "
            f"passes={passes}")
    if repeats < 1:
        raise BenchmarkError(f"repeats must be >= 1, got {repeats}")
    times = _stage_times(blocks)
    best = None
    for _ in range(repeats):
        events = heap_peak = 0
        t0 = time.perf_counter()
        for _ in range(passes):
            sched = _pass(times)
            events += sched.events_popped
            heap_peak = max(heap_peak, sched.heap_peak)
        wall_s = time.perf_counter() - t0
        if best is None or wall_s < best["wall_s"]:
            best = {"wall_s": wall_s, "events_popped": events,
                    "heap_peak": heap_peak,
                    "pass_simulated_ms": sched.clock.now}
    best["events_per_sec"] = (best["events_popped"] / best["wall_s"]
                              if best["wall_s"] > 0 else float("inf"))
    return {
        "bench": "scheduler",
        "params": {"blocks": blocks, "passes": passes, "repeats": repeats},
        "env": {"python": platform.python_version(),
                "machine": platform.machine()},
        "results": {"handshake": best},
        "aggregate": {"logical_events": best["events_popped"],
                      "wall_s": best["wall_s"],
                      "events_per_sec": best["events_per_sec"]},
    }


def format_scheduler_report(payload: Dict) -> list:
    """Human-readable lines for one scheduler bench payload."""
    p = payload["params"]
    row = payload["results"]["handshake"]
    return [
        f"scheduler bench: {p['passes']} agent passes x {p['blocks']} "
        f"blocks",
        f"  {row['events_per_sec']:>12,.0f} events/s  "
        f"wall={row['wall_s']:.3f}s  events={row['events_popped']:,}  "
        f"heap_peak={row['heap_peak']}  "
        f"pass={row['pass_simulated_ms']:.2f} simulated ms"]
