"""The per-edge greedy vertex-cut loop ``greedy_vertex_cut`` ran until it
was re-expressed over replica bitmasks: every node scored on every edge,
with the load bounds recomputed from a numpy array each time.  Kept
verbatim as the oracle the re-expression must match placement for
placement.
"""

from typing import Optional, Sequence

import numpy as np

from repro.graph import Graph
from repro.graph.partition import (PartitionedGraph, _build_from_edge_owners,
                                   _check_parts, _normalize_shares)


def reference_greedy_vertex_cut(graph: Graph, num_partitions: int, *,
                                shares: Optional[Sequence[float]] = None
                                ) -> PartitionedGraph:
    _check_parts(graph, num_partitions)
    n, m = graph.num_vertices, graph.num_edges
    shares_arr = _normalize_shares(num_partitions, shares)
    capacity = np.maximum(shares_arr, 1e-12)

    replicas = [set() for _ in range(n)]        # nodes each vertex touches
    load = np.zeros(num_partitions, dtype=np.float64)
    owner_of_edge = np.zeros(m, dtype=np.int64)

    src_arr, dst_arr = graph.src, graph.dst
    for e in range(m):
        s, d = int(src_arr[e]), int(dst_arr[e])
        rs, rd = replicas[s], replicas[d]
        # PowerGraph greedy objective: reward reusing existing replicas,
        # penalize relative (capacity-scaled) load so no node starves.
        scaled = load / capacity
        lo, hi = scaled.min(), scaled.max()
        span = (hi - lo) if hi > lo else 1.0
        best_node, best_score = 0, -np.inf
        for p in range(num_partitions):
            score = (1.0 if p in rs else 0.0) + (1.0 if p in rd else 0.0)
            # balance weight > max replica reward (2.0) so a node that runs
            # a full span ahead of the least-loaded node always loses the
            # placement, which bounds the imbalance (HDRF-style, lambda=3).
            score -= 3.0 * (scaled[p] - lo) / span
            if score > best_score:
                best_node, best_score = p, score
        node = best_node
        owner_of_edge[e] = node
        load[node] += 1.0
        rs.add(node)
        rd.add(node)

    # master = node with the most incident edges for the vertex
    incidence = np.zeros((num_partitions, n), dtype=np.int64)
    np.add.at(incidence, (owner_of_edge, src_arr), 1)
    np.add.at(incidence, (owner_of_edge, dst_arr), 1)
    master_of = np.asarray(incidence.argmax(axis=0), dtype=np.int64)

    return _build_from_edge_owners(graph, master_of, owner_of_edge,
                                   "greedy-vertex-cut", num_partitions)
