"""Wall-clock hot-path benchmark: edges/sec on parameterized R-MAT graphs.

Every other bench in this repository reports *simulated* milliseconds —
the number the paper's cost models produce, deliberately independent of
how fast the Python middleware itself runs.  This module measures the
orthogonal quantity: real wall-clock throughput of the synchronization
hot path (``repro.core.sync_cache``, the agent's scatter/gather paths and
the engines' merge loops), so a regression in the *implementation* is
visible even when the simulated figures are bit-identical.

``repro-gxplug bench`` runs PageRank / SSSP / CC on an R-MAT graph with a
capacity-bounded vertex cache (the regime its eviction path is built for),
reports edges/sec plus the per-phase wall-time breakdown the engine
accounts via ``time.perf_counter`` (gen / merge / apply / sync / cache),
and writes ``BENCH_hotpath.json`` so the throughput trajectory is tracked
commit over commit.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, List, Optional, Sequence

from ..algorithms import ALGORITHMS, PAPER_WORKLOADS
from ..cluster import NATIVE_RUNTIME, make_cluster
from ..core import GXPlug, MiddlewareConfig
from ..engines import PowerGraphEngine
from ..errors import BenchmarkError
from ..graph.generators import rmat

#: Schema tag stamped into BENCH_hotpath.json documents.
BENCH_SCHEMA = "gxplug-hotpath-bench/1"

#: Default R-MAT shape: big enough that per-vertex Python overhead is the
#: dominant cost on the unvectorized paths, small enough for CI.
DEFAULT_VERTICES = 20_000
DEFAULT_EDGES = 120_000

#: Named parameter sets.  ``default`` is the acceptance shape whose
#: trajectory BENCH_hotpath.json tracks; ``smoke`` is the tiny graph the
#: CI ``bench-smoke`` job gates on.  The ``scheduler`` profiles run the
#: event-loop bench (:mod:`repro.bench.schedbench`) instead of the
#: numeric hot path, sized from measured runs (docs/performance.md):
#: ``scheduler`` is one ``serve-read`` catalogue (1 456 agent passes,
#: 2.63 blocks each on average, rounded to 3), ``sched-smoke`` -- the
#: shape the ``sched-bench-smoke`` CI job gates on -- three
#: ``batch-compute`` rounds (294 passes each, 5.39 blocks, rounded to
#: 5; one round times too briefly to gate on).
#: The ``partition`` profiles time set-up's greedy vertex cut
#: (:mod:`repro.bench.partbench`): ``partition`` on the batch
#: workloads' 30k/240k graph over 4 nodes, ``partition-smoke`` on the
#: hot-path graph over 2 nodes for the ``partition-bench-smoke`` CI job.
PROFILES = {
    "default": {"vertices": DEFAULT_VERTICES, "edges": DEFAULT_EDGES},
    "smoke": {"vertices": 2_000, "edges": 10_000},
    "scheduler": {"kind": "scheduler", "blocks": 3, "passes": 1_456},
    "sched-smoke": {"kind": "scheduler", "blocks": 5, "passes": 882},
    "partition": {"kind": "partition", "vertices": 30_000,
                  "edges": 240_000, "nodes": 4},
    "partition-smoke": {"kind": "partition", "vertices": DEFAULT_VERTICES,
                        "edges": DEFAULT_EDGES, "nodes": 2},
}

#: The acceptance workloads (§V-A's compute-intensive trio, minus LP
#: whose composite merge key makes edges/sec incomparable).
DEFAULT_ALGORITHMS = ("pagerank", "sssp-bf", "cc")

#: Iteration budgets: fixed so pre/post comparisons process identical
#: work (PageRank never converges on its own; SSSP/CC usually finish
#: earlier and simply stop there deterministically).
ITERATION_CAPS = {"pagerank": 5, "sssp-bf": 10, "cc": 10}


def _algorithm(name: str):
    if name not in DEFAULT_ALGORITHMS:
        raise BenchmarkError(
            f"unknown bench algorithm {name!r} "
            f"(choose from {', '.join(DEFAULT_ALGORITHMS)})")
    params, _cap = PAPER_WORKLOADS.get(name, ({}, None))
    return ALGORITHMS[name](**params)


def run_hotpath_bench(vertices: int = DEFAULT_VERTICES,
                      edges: int = DEFAULT_EDGES,
                      algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
                      nodes: int = 2, gpus: int = 1,
                      cache_fraction: float = 0.1,
                      seed: int = 7,
                      repeats: int = 1) -> Dict:
    """Run the hot-path bench; returns the ``BENCH_hotpath.json`` payload.

    ``cache_fraction`` bounds the agents' vertex-cache capacity to that
    fraction of |V| (the acceptance regime is >= 0.1), forcing the
    per-vertex cache through its eviction and miss-fill paths.  ``repeats``
    re-runs each workload and keeps the *fastest* wall time — standard
    practice for wall-clock micro-benchmarks on noisy machines.
    """
    if vertices < 1 or edges < 1:
        raise BenchmarkError(
            f"bench needs a non-empty graph, got |V|={vertices} "
            f"|E|={edges}")
    if not 0.0 < cache_fraction <= 1.0:
        raise BenchmarkError(
            f"cache_fraction must be in (0, 1], got {cache_fraction}")
    if repeats < 1:
        raise BenchmarkError(f"repeats must be >= 1, got {repeats}")
    graph = rmat(vertices, edges, seed=seed, name="bench-rmat")
    capacity = max(1, int(cache_fraction * vertices))
    config = MiddlewareConfig(cache_capacity=capacity)
    results: Dict[str, Dict] = {}
    for name in algorithms:
        cap = ITERATION_CAPS.get(name)
        best: Optional[Dict] = None
        for _ in range(repeats):
            cluster = make_cluster(nodes, gpus_per_node=gpus,
                                   runtime=NATIVE_RUNTIME)
            middleware = GXPlug(cluster, config)
            engine = PowerGraphEngine.build(graph, cluster,
                                            middleware=middleware)
            algorithm = _algorithm(name)
            t0 = time.perf_counter()
            result = engine.run(algorithm, max_iterations=cap)
            wall_s = time.perf_counter() - t0
            # edges processed = every triplet an edge pass consumed,
            # including the extra local iterations sync-skip runs
            edges_done = sum(s.active_edges * max(s.local_iterations, 1)
                             for s in result.stats)
            run_row = {
                "iterations": result.iterations,
                "edges_processed": int(edges_done),
                "wall_s": wall_s,
                "edges_per_sec": edges_done / wall_s if wall_s > 0
                else float("inf"),
                "phase_wall_s": {k: round(v, 6)
                                 for k, v in result.wall_s.items()},
                "simulated_ms": result.total_ms,
                "converged": result.converged,
            }
            if best is None or run_row["wall_s"] < best["wall_s"]:
                best = run_row
        results[name] = best
    total_edges = sum(r["edges_processed"] for r in results.values())
    total_wall = sum(r["wall_s"] for r in results.values())
    return {
        "bench": "hotpath",
        "params": {
            "vertices": vertices,
            "edges": edges,
            "nodes": nodes,
            "gpus": gpus,
            "cache_capacity": capacity,
            "cache_fraction": cache_fraction,
            "seed": seed,
            "repeats": repeats,
            "engine": "powergraph",
        },
        "env": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": results,
        "aggregate": {
            "edges_processed": int(total_edges),
            "wall_s": total_wall,
            "edges_per_sec": total_edges / total_wall if total_wall > 0
            else float("inf"),
        },
    }


def format_report(payload: Dict) -> List[str]:
    """Human-readable lines for one bench payload."""
    lines = []
    p = payload["params"]
    lines.append(
        f"hot-path bench: R-MAT |V|={p['vertices']} |E|={p['edges']}, "
        f"{p['nodes']} nodes x {p['gpus']} GPU, cache {p['cache_capacity']} "
        f"({p['cache_fraction']:.0%} of |V|)")
    for name, row in payload["results"].items():
        phases = " ".join(f"{k}={v:.3f}s"
                          for k, v in row["phase_wall_s"].items())
        lines.append(
            f"  {name:10s} {row['edges_per_sec']:>12,.0f} edges/s  "
            f"wall={row['wall_s']:.3f}s  iters={row['iterations']}  "
            f"[{phases}]")
    agg = payload["aggregate"]
    lines.append(f"  {'aggregate':10s} {agg['edges_per_sec']:>12,.0f} "
                 f"edges/s  wall={agg['wall_s']:.3f}s")
    return lines


def load_bench_json(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != BENCH_SCHEMA:
        raise BenchmarkError(
            f"{path}: not a {BENCH_SCHEMA} document "
            f"(schema={doc.get('schema')!r})")
    return doc


def write_bench_json(doc: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _throughput(aggregate: Dict) -> tuple:
    """The ``(metric key, value)`` of a bench aggregate: edges/s for the
    hot-path bench, events/s for the scheduler bench, placed edges/s
    for the partition bench."""
    for key in ("edges_per_sec", "events_per_sec", "placed_edges_per_sec"):
        if key in aggregate:
            return key, aggregate[key]
    raise BenchmarkError(
        f"bench aggregate has no throughput metric "
        f"(keys: {', '.join(sorted(aggregate)) or 'none'})")


def merge_entry(doc: Optional[Dict], name: str, payload: Dict) -> Dict:
    """Insert/replace entry ``name`` in a bench document (created if
    needed); keeps every other entry (including ``pre_pr``) intact so the
    file accumulates the throughput trajectory."""
    if doc is None:
        doc = {"schema": BENCH_SCHEMA, "entries": {}}
    entries = doc.setdefault("entries", {})
    entries[name] = payload
    pre = entries.get("pre_pr")
    if pre is not None and name != "pre_pr":
        cur_key, cur = _throughput(payload["aggregate"])
        old_key, old = _throughput(pre["aggregate"])
        # cross-metric speedups are meaningless (scheduler entries vs
        # the edges/s pre_pr baseline), so only annotate like-for-like
        if cur_key == old_key and old > 0:
            payload["speedup_vs_pre_pr"] = round(cur / old, 2)
    return doc


def check_regression(doc: Dict, name: str, payload: Dict,
                     max_regression: float) -> str:
    """Gate ``payload`` against the committed entry ``name``.

    Returns a human-readable verdict; raises :class:`BenchmarkError`
    when aggregate throughput regressed by more than ``max_regression``
    (a fraction, e.g. 0.3 = 30%).  Works for every bench family — the
    metric (edges/s, events/s or placed edges/s) is taken from the
    committed entry.
    """
    entries = doc.get("entries", {})
    if name not in entries:
        raise BenchmarkError(
            f"no committed bench entry {name!r} to check against "
            f"(have: {', '.join(sorted(entries)) or 'none'})")
    key, old = _throughput(entries[name]["aggregate"])
    if key not in payload["aggregate"]:
        raise BenchmarkError(
            f"bench payload has no {key!r} to check against entry "
            f"{name!r} (did the profile change bench family?)")
    new = payload["aggregate"][key]
    unit = key.replace("_per_sec", "") + "/s"
    if old <= 0:
        raise BenchmarkError(f"committed entry {name!r} has no throughput")
    ratio = new / old
    verdict = (f"throughput check [{name}]: {new:,.0f} vs committed "
               f"{old:,.0f} {unit} ({ratio:.2f}x)")
    if ratio < 1.0 - max_regression:
        raise BenchmarkError(
            f"{verdict} — regressed beyond the {max_regression:.0%} gate")
    return verdict
