"""Set-up wall-clock benchmark: placed edges/sec of the greedy vertex cut.

Every PowerGraph engine build, ``GraphService.recover()``, ``replace()``
and Lemma-2 repartition runs :func:`~repro.graph.greedy_vertex_cut`
before a superstep starts, so its speed is the set-up share of a batch
job grid.  This bench times that one call on an R-MAT graph, twice:
with equal shares (the engines' default) and with the unequal shares a
Lemma-2 repartition passes, which keep the placement loop on its
scoring branch.  Each row carries a SHA-256 of the placement, so two
entries measured at different commits show whether they placed the
same edges on the same nodes.

The throughput key is ``placed_edges_per_sec``, not the hot-path
bench's ``edges_per_sec``: placing an edge and processing one in a
superstep are different units, and :func:`~repro.bench.hotpath.merge_entry`
only annotates speedups between entries that share a key.
"""

from __future__ import annotations

import hashlib
import platform
import time
from typing import Dict, List, Optional

import numpy as np

from ..errors import BenchmarkError
from ..graph import greedy_vertex_cut, rmat


def _placement_sha256(pgraph) -> str:
    owner = np.empty(pgraph.graph.num_edges, dtype=np.int64)
    for part in pgraph.parts:
        owner[part.edge_ids] = part.node_id
    h = hashlib.sha256(owner.tobytes())
    h.update(np.ascontiguousarray(pgraph.master_of).tobytes())
    return h.hexdigest()


def run_partition_bench(vertices: int, edges: int, nodes: int,
                        seed: int = 7, repeats: int = 1) -> Dict:
    """Run the partition bench; returns a ``BENCH_hotpath.json`` payload.

    ``repeats`` re-runs each placement and keeps the fastest wall time.
    """
    if vertices < 1 or edges < 1 or nodes < 1:
        raise BenchmarkError(
            f"partition bench needs positive sizes, got |V|={vertices} "
            f"|E|={edges} nodes={nodes}")
    if repeats < 1:
        raise BenchmarkError(f"repeats must be >= 1, got {repeats}")
    graph = rmat(vertices, edges, seed=seed, name="bench-rmat")
    cases = {"equal": None,
             "unequal": [float(w) for w in range(nodes, 0, -1)]}
    results: Dict[str, Dict] = {}
    for label, shares in cases.items():
        best: Optional[Dict] = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            pgraph = greedy_vertex_cut(graph, nodes, shares=shares)
            wall_s = time.perf_counter() - t0
            if best is None or wall_s < best["wall_s"]:
                best = {"wall_s": wall_s, "pgraph": pgraph}
        pgraph = best["pgraph"]
        results[label] = {
            "shares": shares,
            "wall_s": best["wall_s"],
            "placed_edges_per_sec": graph.num_edges / best["wall_s"],
            "replication_factor": round(pgraph.replication_factor(), 6),
            "edge_counts": pgraph.edge_counts().tolist(),
            "placement_sha256": _placement_sha256(pgraph),
        }
    total_wall = sum(row["wall_s"] for row in results.values())
    placed = graph.num_edges * len(results)
    return {
        "bench": "partition",
        "params": {
            "vertices": vertices,
            "edges": graph.num_edges,
            "nodes": nodes,
            "seed": seed,
            "repeats": repeats,
            "strategy": "greedy-vertex-cut",
        },
        "env": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": results,
        "aggregate": {
            "placed_edges": placed,
            "wall_s": total_wall,
            "placed_edges_per_sec": placed / total_wall,
        },
    }


def format_partition_report(payload: Dict) -> List[str]:
    """Human-readable lines for one partition bench payload."""
    p = payload["params"]
    lines = [f"partition bench: {p['strategy']} on R-MAT |V|={p['vertices']} "
             f"|E|={p['edges']}, {p['nodes']} nodes"]
    for label, row in payload["results"].items():
        lines.append(
            f"  {label:10s} {row['placed_edges_per_sec']:>12,.0f} placed "
            f"edges/s  wall={row['wall_s']:.3f}s  "
            f"replication={row['replication_factor']:.3f}  "
            f"placement={row['placement_sha256'][:12]}")
    agg = payload["aggregate"]
    lines.append(f"  {'aggregate':10s} {agg['placed_edges_per_sec']:>12,.0f} "
                 f"placed edges/s  wall={agg['wall_s']:.3f}s")
    return lines
