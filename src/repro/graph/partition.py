"""Graph partitioning strategies.

Upper systems partition the graph across distributed nodes (§II-B).  The
middleware is partitioning-agnostic, but the *choice* of partitioner drives
two of the paper's experiments:

* **Workload balancing (Fig. 12(a))** — partition sizes can be tuned to the
  balancing factors of Lemma 2, so every partitioner here accepts optional
  per-node ``shares`` (proportions of edges each node should receive).
* **Synchronization skipping (Fig. 11(b))** — skipping triggers when every
  updated vertex's out-edges are node-local, which depends on how well the
  partitioner preserves clusters.  :func:`clustering_partition` (locality
  preserving, like the paper's real-graph partitions) and
  :func:`hash_partition` (locality destroying, like the uniform synthetic
  case) bracket the two regimes.

Edge-cut partitioners place every edge on the master node of its *source*
vertex (Pregel-style), so message generation is always master-local and
cross-node traffic happens at apply time.  :func:`greedy_vertex_cut`
reproduces PowerGraph's vertex-cut placement where high-degree vertices are
replicated across nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from ..errors import PartitionError
from .graph import Graph, _run_heads, stable_order


@dataclass
class Subgraph:
    """The slice of a :class:`PartitionedGraph` held by one node."""

    node_id: int
    edge_ids: np.ndarray          # global edge ids stored on this node
    src: np.ndarray               # global source vertex per local edge
    dst: np.ndarray               # global destination vertex per local edge
    weights: np.ndarray
    masters: np.ndarray           # vertices this node owns
    referenced: np.ndarray        # every vertex appearing in a local edge
    mirrors: np.ndarray           # referenced but owned elsewhere

    @property
    def num_edges(self) -> int:
        return int(self.edge_ids.size)

    @property
    def num_masters(self) -> int:
        return int(self.masters.size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Subgraph(node={self.node_id}, edges={self.num_edges}, "
                f"masters={self.num_masters}, mirrors={self.mirrors.size})")


class PartitionIndex:
    """What every pass over a :class:`PartitionedGraph` reads and none
    changes — the paper's vertex-edge mapping table (§II-B) and the
    masks derived from the placement.

    A partition is assembled once (:func:`_build_from_edge_owners`) and
    never mutated, so these are constants of it: built on first use,
    then shared by every engine, job and skip detector over the same
    partition.  The arrays are read-only for that reason.
    """

    def __init__(self, pgraph: "PartitionedGraph") -> None:
        g, master_of = pgraph.graph, pgraph.master_of
        n = g.num_vertices
        #: per part: the distinct source ids of its edges, ascending —
        #: the vertices whose out-edges the node holds, so the query
        #: list of a frontier is ``sources[active[sources]]``.  A
        #: part's ``src`` is already ascending (its edge ids ascend and
        #: the graph's ``src`` is CSR-sorted), so they are its runs.
        self.sources = [_run_heads(part.src) for part in pgraph.parts]
        #: per part: ``is_master[p][v]`` — does node p own vertex v?
        self.is_master = [master_of == part.node_id
                          for part in pgraph.parts]
        counts = np.zeros(n, dtype=np.int64)
        #: ``stored_local[v]`` — are all of v's out-edges stored on v's
        #: master?  Always true for edge-cut-by-source, false for
        #: vertex-cut replicas, which must be re-activated globally
        #: after a combined-local superstep.
        self.stored_local = np.ones(n, dtype=bool)
        for part in pgraph.parts:
            counts[part.referenced] += 1
            self.stored_local[
                part.src[master_of[part.src] != part.node_id]] = False
        #: nodes each vertex appears on (vertex-cut mirror sync volume)
        self.replica_count = np.maximum(counts, 1)
        #: ``out_local[v]`` — are all of v's out-edge destinations
        #: mastered on v's own master node?  The §III-B3
        #: synchronization-skipping predicate: an iteration's sync can
        #: be skipped iff every vertex updated in it satisfies it.
        self.out_local = np.ones(n, dtype=bool)
        self.out_local[g.src[master_of[g.src] != master_of[g.dst]]] = False
        for arr in (*self.sources, *self.is_master, self.replica_count,
                    self.stored_local, self.out_local):
            arr.flags.writeable = False


@dataclass
class PartitionedGraph:
    """A graph partitioned over ``num_partitions`` distributed nodes.

    Immutable once assembled: jobs share one instance (and its
    :attr:`index`) across engines, and a mutation or repartition builds
    a new one.
    """

    graph: Graph
    strategy: str
    master_of: np.ndarray          # shape (n,): owning node per vertex
    parts: List[Subgraph] = field(default_factory=list)

    @property
    def num_partitions(self) -> int:
        return len(self.parts)

    @cached_property
    def index(self) -> PartitionIndex:
        """The partition's :class:`PartitionIndex`, built on first use."""
        return PartitionIndex(self)

    def edge_counts(self) -> np.ndarray:
        """Edges per node — the d_j of the balancing model (§III-C)."""
        return np.array([p.num_edges for p in self.parts], dtype=np.int64)

    def replication_factor(self) -> float:
        """Average number of nodes a vertex appears on (vertex-cut metric)."""
        if self.graph.num_vertices == 0:
            return 0.0
        appearances = sum(int(p.referenced.size) for p in self.parts)
        return appearances / self.graph.num_vertices

    def out_local_mask(self) -> np.ndarray:
        """:attr:`PartitionIndex.out_local` (read-only, shared)."""
        return self.index.out_local

    def local_edge_fraction(self) -> float:
        """Fraction of edges whose endpoints share a master (locality)."""
        g = self.graph
        if g.num_edges == 0:
            return 1.0
        same = self.master_of[g.src] == self.master_of[g.dst]
        return float(same.mean())


def _normalize_shares(num_partitions: int,
                      shares: Optional[Sequence[float]]) -> np.ndarray:
    if shares is None:
        return np.full(num_partitions, 1.0 / num_partitions)
    arr = np.asarray(shares, dtype=np.float64)
    if arr.size != num_partitions:
        raise PartitionError(
            f"{arr.size} shares given for {num_partitions} partitions"
        )
    with np.errstate(over="ignore"):    # an overflowing sum is refused
        total = arr.sum()
    if not (np.isfinite(arr).all() and np.isfinite(total)
            and (arr >= 0).all() and total > 0):
        raise PartitionError(
            "shares must be finite and non-negative, with a finite sum > 0")
    return arr / total


def _slices_by(ids: np.ndarray, bound: int) -> List[np.ndarray]:
    """Per value ``p`` in ``[0, bound)``: the ascending positions where
    ``ids == p``, as slices of one stable order."""
    order = stable_order(ids, bound)
    cuts = np.zeros(bound + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=bound), out=cuts[1:])
    return [order[cuts[p]:cuts[p + 1]] for p in range(bound)]


def _build_from_edge_owners(graph: Graph, master_of: np.ndarray,
                            owner_of_edge: np.ndarray,
                            strategy: str,
                            num_partitions: int) -> PartitionedGraph:
    """Assemble subgraphs from an explicit per-edge placement.

    The generic assembler behind every placement policy: edge-cut
    passes ``master_of[src]``, partition deltas pass the surviving
    edges' previous owners so float summation order is preserved
    across a mutation.  Every owner and master must be a node id in
    ``[0, num_partitions)``; one that is not would lose its edge or
    vertex, so it is refused.
    """
    for label, ids in (("edge owner", owner_of_edge),
                       ("master", master_of)):
        if ids.size and (ids.min() < 0 or ids.max() >= num_partitions):
            raise PartitionError(
                f"{label} ids span [{int(ids.min())}, {int(ids.max())}], "
                f"outside the {num_partitions} partitions")
    edge_ids_of = _slices_by(owner_of_edge, num_partitions)
    masters_of = _slices_by(master_of, num_partitions)
    seen = np.zeros(graph.num_vertices, dtype=bool)
    parts: List[Subgraph] = []
    for node_id in range(num_partitions):
        edge_ids = edge_ids_of[node_id]
        src = np.take(graph.src, edge_ids)
        dst = np.take(graph.dst, edge_ids)
        weights = np.take(graph.weights, edge_ids)
        seen[src] = True
        seen[dst] = True
        referenced = np.flatnonzero(seen)
        seen[referenced] = False
        mirrors = referenced[master_of[referenced] != node_id]
        parts.append(Subgraph(node_id, edge_ids, src, dst, weights,
                              masters_of[node_id], referenced, mirrors))
    return PartitionedGraph(graph, strategy, master_of, parts)


def hash_partition(graph: Graph, num_partitions: int, *,
                   shares: Optional[Sequence[float]] = None,
                   seed: int = 0) -> PartitionedGraph:
    """Locality-destroying hash partitioner (the "synthetic" regime).

    With equal shares the master node is a multiplicative hash of the
    vertex id; with explicit ``shares`` vertices are sampled into nodes
    proportionally (deterministic given ``seed``).
    """
    _check_parts(graph, num_partitions)
    n = graph.num_vertices
    shares_arr = _normalize_shares(num_partitions, shares)
    if shares is None:
        master_of = ((np.arange(n, dtype=np.uint64) * np.uint64(2654435761))
                     % np.uint64(num_partitions)).astype(np.int64)
    else:
        rng = np.random.default_rng(seed)
        master_of = rng.choice(num_partitions, size=n, p=shares_arr)
    master_of = master_of.astype(np.int64)
    return _build_from_edge_owners(graph, master_of, master_of[graph.src],
                                   "hash", num_partitions)


def range_partition(graph: Graph, num_partitions: int, *,
                    shares: Optional[Sequence[float]] = None
                    ) -> PartitionedGraph:
    """Contiguous vertex ranges sized so each node's *edge* count matches
    its share (the paper's workload measure is edges, not vertices)."""
    _check_parts(graph, num_partitions)
    n = graph.num_vertices
    shares_arr = _normalize_shares(num_partitions, shares)
    degrees = np.diff(graph.indptr).astype(np.float64)
    cum_edges = np.concatenate([[0.0], np.cumsum(degrees)])
    total = cum_edges[-1] if cum_edges[-1] > 0 else 1.0
    targets = np.cumsum(shares_arr) * total
    master_of = np.zeros(n, dtype=np.int64)
    start = 0
    for node_id in range(num_partitions):
        if node_id == num_partitions - 1:
            end = n
        else:
            end = int(np.searchsorted(cum_edges[1:], targets[node_id],
                                      side="left")) + 1
            end = max(start, min(end, n))
        master_of[start:end] = node_id
        start = end
    return _build_from_edge_owners(graph, master_of, master_of[graph.src],
                                   "range", num_partitions)


def clustering_partition(graph: Graph, num_partitions: int, *,
                         shares: Optional[Sequence[float]] = None,
                         seed: int = 0) -> PartitionedGraph:
    """Locality-preserving partitioner (BFS region growing).

    Grows partitions one at a time by BFS over the undirected structure
    until the partition reaches its edge-share budget, mimicking the
    clustering-based partitioning the paper cites ([22]) and producing the
    high partition locality that makes synchronization skipping effective
    on real graphs.
    """
    _check_parts(graph, num_partitions)
    n = graph.num_vertices
    shares_arr = _normalize_shares(num_partitions, shares)
    undirected = graph.to_undirected()
    degrees = np.diff(graph.indptr).astype(np.float64)
    total_edges = max(float(degrees.sum()), 1.0)
    budgets = shares_arr * total_edges

    rng = np.random.default_rng(seed)
    master_of = np.full(n, -1, dtype=np.int64)
    unassigned = list(rng.permutation(n))
    cursor = 0

    for node_id in range(num_partitions):
        filled = 0.0
        frontier: List[int] = []
        budget = budgets[node_id]
        is_last = node_id == num_partitions - 1
        while (is_last or filled < budget) and cursor <= n:
            if not frontier:
                # find a fresh seed vertex
                while cursor < len(unassigned) and \
                        master_of[unassigned[cursor]] != -1:
                    cursor += 1
                if cursor >= len(unassigned):
                    break
                frontier.append(int(unassigned[cursor]))
                cursor += 1
            v = frontier.pop()
            if master_of[v] != -1:
                continue
            master_of[v] = node_id
            filled += degrees[v]
            for u in undirected.out_neighbors(v):
                if master_of[u] == -1:
                    frontier.append(int(u))
            if not is_last and filled >= budget:
                break
    # any stragglers go to the last node
    master_of[master_of == -1] = num_partitions - 1
    return _build_from_edge_owners(graph, master_of, master_of[graph.src],
                                   "clustering", num_partitions)


def greedy_vertex_cut(graph: Graph, num_partitions: int, *,
                      shares: Optional[Sequence[float]] = None
                      ) -> PartitionedGraph:
    """PowerGraph-style greedy vertex-cut edge placement.

    Each edge goes to the node that already hosts both endpoints, else one
    endpoint, else the least-loaded node — the classic greedy heuristic of
    Gonzalez et al. [3].  Vertex masters are then assigned to the node
    holding most of the vertex's edges.  ``shares`` scale the load metric
    so heterogeneous nodes can take proportionally more edges.

    Edge e goes to the first node p with the largest
    ``[p hosts src] + [p hosts dst] - 3 * (scaled[p] - lo) / span``,
    where ``scaled = load / capacity``, ``lo``/``hi`` are its min/max and
    ``span = hi - lo`` (1.0 when they are equal).  The balance weight 3
    exceeds the largest replica reward, so a node a full span ahead of
    the least-loaded one always loses, which bounds the imbalance
    (HDRF-style, lambda = 3).

    The loop makes exactly those decisions with exactly those float
    operations, but scores only nodes that can win.  A node at ``lo``
    scores its replica reward (0, 1 or 2); a node at ``hi > lo`` scores
    ``reward - 3 < 0`` (``3 * span / span`` rounds to exactly 3.0).  So
    while every node sits at ``lo`` or ``hi`` the winner is the first
    node at ``lo`` with the largest reward, found by bitmask arithmetic.
    Otherwise only the endpoints' replicas and the first non-replica at
    ``lo`` (score 0) are scored: every other node is a non-replica that
    scores < 0, or 0 at a higher index.

    Equal capacities never leave the ``lo``/``hi`` state: every node is
    chosen once per round of ``num_partitions`` edges, so the nodes at
    ``lo`` are those not yet chosen in the current round, and no load
    needs tracking (:func:`_place_in_rounds`).
    """
    _check_parts(graph, num_partitions)
    n = graph.num_vertices
    shares_arr = _normalize_shares(num_partitions, shares)
    capacity = np.maximum(shares_arr, 1e-12).tolist()
    src_arr, dst_arr = graph.src, graph.dst
    if capacity.count(capacity[0]) == num_partitions:
        owner_of_edge = _place_in_rounds(src_arr, dst_arr, n,
                                         num_partitions)
    else:
        owner_of_edge = _place_by_score(src_arr, dst_arr, n, capacity)

    # master = node with the most incident edges for the vertex (the
    # first such node on a tie)
    incident = owner_of_edge * n
    size = num_partitions * n
    incidence = (np.bincount(incident + src_arr, minlength=size)
                 + np.bincount(incident + dst_arr, minlength=size))
    master_of = incidence.reshape(num_partitions, n).argmax(axis=0)

    return _build_from_edge_owners(graph, master_of, owner_of_edge,
                                   "greedy-vertex-cut", num_partitions)


def _place_in_rounds(src_arr: np.ndarray, dst_arr: np.ndarray, n: int,
                     num_partitions: int) -> np.ndarray:
    """Greedy placement under equal capacities: the node per edge.

    ``at_lo`` is the bitmask of the nodes not yet chosen in the current
    round; the winner is its lowest node hosting both endpoints, else
    one, else any.
    """
    everyone = (1 << num_partitions) - 1
    replicas = [0] * n                  # bitmask of the nodes v touches
    at_lo = everyone
    bits = []
    place = bits.append
    for s, d in zip(src_arr.tolist(), dst_arr.tolist()):
        rs, rd = replicas[s], replicas[d]
        best = rs & rd & at_lo or (rs | rd) & at_lo or at_lo
        bit = best & -best
        place(bit)
        replicas[s] = rs | bit
        replicas[d] |= bit
        at_lo ^= bit
        if not at_lo:
            at_lo = everyone
    return np.fromiter(map(int.bit_length, bits), np.int64, len(bits)) - 1


def _place_by_score(src_arr: np.ndarray, dst_arr: np.ndarray, n: int,
                    capacity: List[float]) -> np.ndarray:
    """Greedy placement under unequal capacities: the node per edge,
    scoring only the nodes that can win (see :func:`greedy_vertex_cut`).
    """
    num_partitions = len(capacity)
    everyone = (1 << num_partitions) - 1
    node_of_bit = {1 << p: p for p in range(num_partitions)}
    replicas = [0] * n                  # bitmask of the nodes v touches
    load = [0.0] * num_partitions
    scaled = [0.0] * num_partitions     # load / capacity
    lo = hi = 0.0
    at_lo = at_hi = everyone            # bitmasks of the nodes at lo, hi
    owner_of_edge = []
    place = owner_of_edge.append

    for s, d in zip(src_arr.tolist(), dst_arr.tolist()):
        rs, rd = replicas[s], replicas[d]
        if at_lo | at_hi == everyone:
            # reward 2, else 1, else 0 among the nodes at lo; lowest bit
            best = rs & rd & at_lo or (rs | rd) & at_lo or at_lo
            bit = best & -best
        else:
            span = hi - lo
            hosts = rs | rd
            free = at_lo & ~hosts
            candidates = hosts | (free & -free)
            best_score = -np.inf
            while candidates:
                cand = candidates & -candidates
                candidates ^= cand
                p = node_of_bit[cand]
                # the float operations and their order are the score's
                score = ((1.0 if rs & cand else 0.0)
                         + (1.0 if rd & cand else 0.0))
                score -= 3.0 * (scaled[p] - lo) / span
                if score > best_score:
                    bit, best_score = cand, score
        node = node_of_bit[bit]
        place(node)
        replicas[s] = rs | bit
        replicas[d] |= bit
        load[node] += 1.0
        value = scaled[node] = load[node] / capacity[node]
        if value > hi:
            hi, at_hi = value, bit
        elif value == hi:
            at_hi |= bit
        if at_lo & bit:                 # the node left lo (loads only grow)
            at_lo ^= bit
            if not at_lo:
                if at_hi == everyone:
                    lo, at_lo = hi, everyone
                else:
                    lo = min(scaled)
                    at_lo = sum(1 << p for p, v in enumerate(scaled)
                                if v == lo)
    return np.array(owner_of_edge, dtype=np.int64)


PARTITIONERS = {
    "hash": hash_partition,
    "range": range_partition,
    "clustering": clustering_partition,
    "greedy-vertex-cut": greedy_vertex_cut,
}


def partition(graph: Graph, num_partitions: int, strategy: str = "hash",
              **kwargs) -> PartitionedGraph:
    """Dispatch to a named partitioning strategy."""
    if strategy not in PARTITIONERS:
        raise PartitionError(
            f"unknown strategy {strategy!r}; available: {sorted(PARTITIONERS)}"
        )
    return PARTITIONERS[strategy](graph, num_partitions, **kwargs)


def _check_parts(graph: Graph, num_partitions: int) -> None:
    if num_partitions < 1:
        raise PartitionError(f"need >=1 partitions, got {num_partitions}")
    if graph.num_vertices == 0 and num_partitions > 1:
        raise PartitionError("cannot partition an empty graph")
