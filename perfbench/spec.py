"""The benchmark's fixed facts: metric names from ``BENCHMARK.json`` and
the input sizes of each workload.

``BENCHMARK.json`` is the single source of metric names, units,
directions and regression bounds; nothing here repeats them.  Sizes
live here because the manifest's schema has no field for them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from . import ROOT

MANIFEST = os.path.join(ROOT, "BENCHMARK.json")


@dataclass(frozen=True)
class MetricDef:
    name: str
    unit: str
    better: str                     # "lower" | "higher"
    bound: Optional[float] = None   # end-to-end metrics only


@dataclass(frozen=True)
class Manifest:
    workloads: List[str]
    end_to_end: List[MetricDef]
    per_layer: List[MetricDef]
    run_seconds: int


def load_manifest(path: str = MANIFEST) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return Manifest(
        workloads=[w["name"] for w in doc["workloads"]],
        end_to_end=[MetricDef(**m) for m in doc["end_to_end"]],
        per_layer=[MetricDef(**m) for m in doc["per_layer"]],
        run_seconds=int(doc["run_seconds"]))


#: Set-up repetitions; ``setup_s`` is their median.  A served set-up
#: is a process start, cheap enough to repeat more often.
BATCH_SETUP_REPS = 3
SERVE_SETUP_REPS = 5

#: Iteration caps.  PageRank never converges on its own, so its cap is
#: the work; the monotone algorithms converge well inside theirs (the
#: output check needs the fixpoint, which a tight cap could cut short).
CAPS = {"pagerank": 5, "sssp-bf": 40, "cc": 40, "bfs": 40}

#: Full-size inputs and operation counts.  A run is a fixed schedule:
#: ``rounds`` / ``bursts`` / ``cycles`` / ``kill_cycles`` are sized so
#: the timed part takes about ``run_seconds`` (20 s) on the reference
#: container at the seed commit, and scale with ``--seconds`` (see
#: :func:`sizes`).  The same seed and seconds give the same operations.
FULL: Dict[str, Dict[str, Any]] = {
    "batch-compute": {
        "vertices": 30_000, "edges": 240_000,
        "nodes": 4, "topology": "rack:2x2", "cache_fraction": None,
        "rounds": 6,
    },
    "batch-cachebound": {
        "vertices": 5_000, "edges": 30_000,
        "nodes": 2, "topology": None, "cache_fraction": 0.1,
        "rounds": 9,
    },
    "serve-read": {
        "graphs": [(20_000, 120_000), (20_000, 120_000)],
        "nodes": 2, "cache_entries": 16, "max_running": 4,
        "clients": 2, "burst": 4, "tenants": 3, "zipf": 1.1,
        "bursts": 38,               # per client
    },
    "serve-churn": {
        "graphs": [(8_000, 48_000)],
        "nodes": 2, "cache_entries": 16, "max_running": 4,
        "churn": 0.01, "reader_passes": 2,      # per mutation cycle
        "crash_after_steps": 6,
        "cycles": 16, "kill_cycles": 3,
    },
}

#: ``--quick``: the same code paths on inputs small enough that all
#: four workloads finish in well under 30 s together.
QUICK: Dict[str, Dict[str, Any]] = {
    "batch-compute": dict(FULL["batch-compute"], vertices=2_000,
                          edges=12_000, rounds=1),
    "batch-cachebound": dict(FULL["batch-cachebound"], vertices=1_000,
                             edges=6_000, rounds=1),
    "serve-read": dict(FULL["serve-read"],
                       graphs=[(1_500, 9_000), (1_500, 9_000)], bursts=4),
    "serve-churn": dict(FULL["serve-churn"], graphs=[(1_500, 9_000)],
                        cycles=5, kill_cycles=1),
}

#: the keys of a size table that count operations
COUNTS = ("rounds", "bursts", "cycles", "kill_cycles")


def sizes(workload: str, quick: bool, seconds: float,
          run_seconds: int) -> Dict[str, Any]:
    """The inputs and operation counts of one run.  The counts in the
    tables are for ``run_seconds``; another ``--seconds`` scales them in
    proportion (at least one of each), so the run still measures for
    about that long without a clock deciding when it stops."""
    table = QUICK if quick else FULL
    if workload not in table:
        raise SystemExit(
            f"unknown workload {workload!r}; one of {sorted(table)}")
    size = dict(table[workload])
    for key in COUNTS:
        if key in size:
            size[key] = max(1, round(size[key] * seconds / run_seconds))
    return size
