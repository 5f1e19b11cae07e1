"""Oracles for ``repro.graph.partition``: the code it ran before each
re-expression, kept verbatim so the new forms can be held to it.

* :func:`reference_greedy_vertex_cut` — the per-edge greedy loop that
  scored every node on every edge, with the load bounds recomputed from
  a numpy array each time, and masters elected over an ``np.add.at``
  incidence table.
* :func:`reference_build_from_edge_owners` — the part assembler that
  scanned the owner array once per part and sorted every part's
  endpoints for ``referenced``.
* :class:`ReferencePartitionIndex` — ``PartitionIndex`` with each
  part's distinct sources found by sorting.
"""

from typing import List, Optional, Sequence

import numpy as np

from repro.graph import Graph, distinct_ids
from repro.graph.partition import (PartitionedGraph, Subgraph, _check_parts,
                                   _normalize_shares)


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

    return reference_build_from_edge_owners(graph, master_of, owner_of_edge,
                                            "greedy-vertex-cut",
                                            num_partitions)


def reference_build_from_edge_owners(graph: Graph, master_of: np.ndarray,
                                     owner_of_edge: np.ndarray,
                                     strategy: str,
                                     num_partitions: int
                                     ) -> PartitionedGraph:
    parts: List[Subgraph] = []
    for node_id in range(num_partitions):
        edge_ids = np.nonzero(owner_of_edge == node_id)[0]
        src = graph.src[edge_ids]
        dst = graph.dst[edge_ids]
        weights = graph.weights[edge_ids]
        masters = np.flatnonzero(master_of == node_id)
        referenced = distinct_ids(np.concatenate([src, dst]))
        mirrors = referenced[master_of[referenced] != node_id]
        parts.append(Subgraph(node_id, edge_ids, src, dst, weights,
                              masters, referenced, mirrors))
    return PartitionedGraph(graph, strategy, master_of, parts)


class ReferencePartitionIndex:

    def __init__(self, pgraph: "PartitionedGraph") -> None:
        g, master_of = pgraph.graph, pgraph.master_of
        n = g.num_vertices
        self.sources = [distinct_ids(part.src) for part in pgraph.parts]
        self.is_master = [master_of == part.node_id
                          for part in pgraph.parts]
        counts = np.zeros(n, dtype=np.int64)
        self.stored_local = np.ones(n, dtype=bool)
        for part in pgraph.parts:
            counts[part.referenced] += 1
            self.stored_local[
                part.src[master_of[part.src] != part.node_id]] = False
        self.replica_count = np.maximum(counts, 1)
        self.out_local = np.ones(n, dtype=bool)
        self.out_local[g.src[master_of[g.src] != master_of[g.dst]]] = False
