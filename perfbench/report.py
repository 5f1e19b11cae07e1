"""Turn what a run measured into named metrics, files and the result
line.

A workload returns an :class:`Outcome`; :func:`finish` derives the
per-layer numbers from its spans and counters, writes ``env.json``,
``metrics.json`` and (traced) ``trace.json`` under ``--out``, prints
every metric with its unit, and ends standard output with the one JSON
object the driver reads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from . import measure
from .layers import merge_counters
from .spec import Manifest
from .trace import Totals, covered_seconds, span_cost_s

#: per-layer metrics that are span self-time; any other ``<span>_s`` is
#: that span's inclusive seconds
_SELF_SECONDS = {
    "core.agent.edge_pass_self_s": ("core.agent.edge_pass",),
    "engines.run_self_s": ("engines.run", "engines.step"),
}
#: per-layer metrics that are span call counts
_CALLS = {
    "graph.mutation_apply_calls": ("graph.mutation_apply",),
    "algorithms.calls": ("algorithms.msg_gen", "algorithms.msg_merge",
                         "algorithms.msg_apply", "algorithms.combine_many"),
    "core.agent.edge_pass_calls": ("core.agent.edge_pass",),
    "core.daemon.blocks": ("core.daemon.compute_block",),
    "core.sync_cache.inits": ("core.sync_cache.init",),
    "cluster.builds": ("cluster.build",),
    "fault.checkpoint.saves": ("fault.checkpoint.save",),
    "serve.journal.sidecars": ("serve.journal.sidecar",),
}


@dataclass
class Outcome:
    """Everything one workload run hands to :func:`finish`."""

    end_to_end: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    #: the timed intervals on the shared perf_counter clock
    windows: List[Tuple[float, float]]
    #: program-published counters, one dict per process that did work
    published: List[Dict[str, float]] = field(default_factory=list)
    #: span lists and tracer counts, one entry per traced process
    span_lists: List[Tuple[str, List[list]]] = field(default_factory=list)
    counts: List[Dict[str, float]] = field(default_factory=list)
    #: per-layer values the workload measured directly (client side)
    layer_values: Dict[str, float] = field(default_factory=dict)
    #: untraced detail worth keeping in metrics.json (sample counts,
    #: digests, per-class latencies)
    detail: Dict[str, Any] = field(default_factory=dict)
    #: wall of server processes, for ``serve.service.idle_share``
    server_walls: List[Tuple[float, float]] = field(default_factory=list)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(outcome: Outcome, manifest: Manifest
                     ) -> Dict[str, float]:
    """Every per-layer metric of the manifest, zero where the workload
    never entered the layer."""
    span_lists = [spans for _, spans in outcome.span_lists]
    totals = Totals(span_lists)
    known = merge_counters(outcome.published + outcome.counts)
    known.update(outcome.layer_values)
    values: Dict[str, float] = {}
    for m in manifest.per_layer:
        name = m.name
        if name in known:
            values[name] = known[name]
        elif name in _SELF_SECONDS:
            values[name] = totals.self_seconds(*_SELF_SECONDS[name])
        elif name in _CALLS:
            values[name] = totals.count(*_CALLS[name])
        elif name.endswith("_s"):
            values[name] = totals.seconds(name[:-2])
        else:
            values[name] = 0.0

    steps = totals.durations.get("engines.step", [])
    values["engines.superstep_wall_ms_p50"] = measure.median(steps) * 1e3
    appends = totals.durations.get("serve.journal.append", [])
    values["serve.journal.append_us_p50"] = measure.median(appends) * 1e6
    values["core.sync_cache.hit_ratio"] = _ratio(
        values["core.sync_cache.hits"],
        values["core.sync_cache.hits"] + values["core.sync_cache.misses"])
    values["serve.cache.hit_ratio"] = _ratio(
        values["serve.cache.hits"],
        values["serve.cache.hits"] + values["serve.cache.misses"])
    values["ipc.scheduler.events_per_batch"] = _ratio(
        values["ipc.scheduler.events"], values["ipc.scheduler.batches"])

    # server time outside every wrapped call: select wait, socket I/O,
    # frame parsing
    server_wall = sum(b - a for a, b in outcome.server_walls)
    values["serve.service.idle_share"] = _ratio(
        totals.self_seconds("serve.wire.serve"), server_wall)

    timed = sum(b - a for a, b in outcome.windows)
    spans = sum(len(s) for s in span_lists)
    values["trace.spans"] = spans
    values["trace.unattributed_share"] = max(
        0.0, 1.0 - _ratio(covered_seconds(span_lists, outcome.windows),
                          timed))
    # recording cost only: spans x the calibrated cost of one span.  A
    # run cannot see its untraced twin; README.md has the measured
    # traced-vs-untraced walls of the same schedule
    values["trace.overhead_share"] = _ratio(spans * span_cost_s(), timed)
    return values


def _write(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def finish(outcome: Outcome, manifest: Manifest, *, workload: str,
           seed: int, trace: bool, quick: bool, out_dir: str,
           env: Dict[str, Any]) -> Dict[str, Any]:
    """Write the run's files, print its metrics, return the result."""
    os.makedirs(out_dir, exist_ok=True)
    defs = {m.name: m for m in manifest.end_to_end + manifest.per_layer}
    e2e = {m.name: {"value": outcome.end_to_end[m.name], "unit": m.unit}
           for m in manifest.end_to_end}
    doc: Dict[str, Any] = {
        "workload": workload, "seed": seed, "trace": trace, "quick": quick,
        "noisy": env["noisy"], "correct": outcome.correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "end_to_end": e2e,
        # what the benchmark measured directly, traced or not: client
        # round trips, per-class latencies, peak RSS
        "detail": dict(outcome.detail, measured=outcome.layer_values),
    }
    shown = e2e
    if trace:
        layer = per_layer_values(outcome, manifest)
        doc["per_layer"] = shown = {
            name: {"value": value, "unit": defs[name].unit}
            for name, value in layer.items()}
        _write(os.path.join(out_dir, "trace.json"),
               {"processes": [{"proc": proc, "spans": spans}
                              for proc, spans in outcome.span_lists],
                "windows": outcome.windows})
    _write(os.path.join(out_dir, "env.json"), env)
    _write(os.path.join(out_dir, "metrics.json"), doc)

    tag = " quick" if quick else ""
    print(f"# {workload} seed={seed} trace={int(trace)}{tag}: "
          f"attempted={outcome.attempted} failed={outcome.failed} "
          f"correct={outcome.correct} noisy={env['noisy']}")
    for name, m in shown.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    result = {"correct": bool(outcome.correct and outcome.failed == 0),
              "attempted": int(outcome.attempted),
              "failed": int(outcome.failed), "metrics": shown}
    print(json.dumps(result))
    return result
