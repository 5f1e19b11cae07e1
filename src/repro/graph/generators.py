"""Synthetic graph generators.

Used to build scaled-down *twins* of the paper's Table I datasets and the
"synthetic" (uniform) graphs of Fig. 11.  Each generator is deterministic
given a seed.

* :func:`rmat` — Kronecker/R-MAT power-law graphs, the standard stand-in
  for social networks (Orkut, LiveJournal, Twitter, UK-2007).
* :func:`uniform_random` — Erdős–Rényi ``G(n, m)``; the paper's "synthetic
  dataset ... more uniform, due to the random generation of nodes and
  edges" where synchronization skipping shows little benefit.
* :func:`road_network` — sparse grid with unit-ish degree, the twin of the
  WRN road network.
* :func:`star`, :func:`path`, :func:`cycle`, :func:`complete` — small
  fixtures for unit tests.
"""

from __future__ import annotations

import numpy as np

from ..core.config import check_count
from ..errors import GraphError
from .graph import Graph


def rmat(num_vertices: int, num_edges: int, *, a: float = 0.57,
         b: float = 0.19, c: float = 0.19, seed: int = 0,
         weighted: bool = True, name: str = "rmat") -> Graph:
    """R-MAT generator (Chakrabarti et al.): recursive quadrant sampling.

    Produces the skewed, clustered degree distribution of real social/web
    graphs.  ``num_vertices`` is rounded up to the next power of two for
    sampling and then mapped back down by modulo, which preserves skew.
    """
    check_count("rmat num_vertices", num_vertices, 1, error=GraphError)
    if not 0 < a + b + c < 1:
        raise GraphError("rmat requires a+b+c in (0, 1)")
    rng = np.random.default_rng(seed)
    scale = max(1, int(np.ceil(np.log2(num_vertices))))
    d = 1.0 - a - b - c
    probs = np.array([a, b, c, d])
    cum = np.cumsum(probs)

    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    quad = np.empty(num_edges, dtype=np.int8)
    for level in range(scale):
        r = rng.random(num_edges)
        # the quadrant is np.searchsorted(cum, r), i.e. how many of the
        # four bounds lie below r: four compares beat a binary search
        np.greater(r, cum[0], out=quad)
        for bound in cum[1:]:
            quad += r > bound
        # quadrant bit decomposition: bit0 -> dst half, bit1 -> src half
        src <<= 1
        src |= quad >> 1
        dst <<= 1
        dst |= quad & 1
    src %= num_vertices
    dst %= num_vertices
    weights = (rng.uniform(1.0, 10.0, num_edges) if weighted
               else np.ones(num_edges))
    return Graph.from_edges(num_vertices, src, dst, weights, name=name)


def uniform_random(num_vertices: int, num_edges: int, *, seed: int = 0,
                   weighted: bool = True,
                   name: str = "uniform") -> Graph:
    """Erdős–Rényi ``G(n, m)`` with independently uniform endpoints."""
    check_count("uniform_random num_vertices", num_vertices, 1,
                error=GraphError)
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, num_edges, dtype=np.int64)
    weights = (rng.uniform(1.0, 10.0, num_edges) if weighted
               else np.ones(num_edges))
    return Graph.from_edges(num_vertices, src, dst, weights, name=name)


def road_network(rows: int, cols: int, *, seed: int = 0,
                 extra_edge_fraction: float = 0.05,
                 name: str = "road") -> Graph:
    """Grid-shaped road network: |E| ≈ |V|, low max degree, long diameter.

    Mirrors the WRN road network of Table I where |E|/|V| ≈ 1.2.
    Horizontal and vertical links alternate direction per row/column (so
    the graph is strongly connected-ish like real road grids), plus a few
    random "highway" shortcuts.
    """
    for name, size in (("rows", rows), ("cols", cols)):
        check_count(f"road_network {name}", size, 1, error=GraphError)
    n = rows * cols
    rng = np.random.default_rng(seed)
    srcs = []
    dsts = []
    for r in range(rows):
        for ccol in range(cols - 1):
            v = r * cols + ccol
            if r % 2 == 0:
                srcs.append(v)
                dsts.append(v + 1)
            else:
                srcs.append(v + 1)
                dsts.append(v)
    for ccol in range(cols):
        for r in range(rows - 1):
            v = r * cols + ccol
            if ccol % 2 == 0:
                srcs.append(v)
                dsts.append(v + cols)
            else:
                srcs.append(v + cols)
                dsts.append(v)
    extra = int(extra_edge_fraction * n)
    if extra:
        srcs.extend(rng.integers(0, n, extra).tolist())
        dsts.extend(rng.integers(0, n, extra).tolist())
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    weights = rng.uniform(1.0, 10.0, src.size)
    return Graph.from_edges(n, src, dst, weights, name=name)


def star(num_leaves: int, name: str = "star") -> Graph:
    """Vertex 0 points at every leaf — worst-case degree skew fixture."""
    check_count("star num_leaves", num_leaves, 0, error=GraphError)
    src = np.zeros(num_leaves, dtype=np.int64)
    dst = np.arange(1, num_leaves + 1, dtype=np.int64)
    return Graph.from_edges(num_leaves + 1, src, dst, name=name)


def path(num_vertices: int, name: str = "path") -> Graph:
    """A directed path 0 → 1 → ... → n-1."""
    check_count("path num_vertices", num_vertices, 1, error=GraphError)
    src = np.arange(0, num_vertices - 1, dtype=np.int64)
    dst = np.arange(1, num_vertices, dtype=np.int64)
    return Graph.from_edges(num_vertices, src, dst, name=name)


def cycle(num_vertices: int, name: str = "cycle") -> Graph:
    """A directed cycle 0 → 1 → ... → n-1 → 0."""
    check_count("cycle num_vertices", num_vertices, 1, error=GraphError)
    src = np.arange(num_vertices, dtype=np.int64)
    dst = np.roll(src, -1)
    return Graph.from_edges(num_vertices, src, dst, name=name)


def complete(num_vertices: int, name: str = "complete") -> Graph:
    """Complete directed graph without self loops (small fixtures only)."""
    check_count("complete num_vertices", num_vertices, 1, error=GraphError)
    grid_src, grid_dst = np.meshgrid(np.arange(num_vertices),
                                     np.arange(num_vertices))
    mask = grid_src != grid_dst
    return Graph.from_edges(num_vertices, grid_src[mask].ravel(),
                            grid_dst[mask].ravel(), name=name)


def clustered_communities(num_communities: int, community_size: int,
                          intra_edges_per_vertex: int = 8,
                          inter_edge_fraction: float = 0.02, *,
                          seed: int = 0,
                          name: str = "clustered") -> Graph:
    """Dense communities with sparse links between them.

    The paper observes (Fig. 11(b)) that *real* graphs "tend to be more
    clusters of dense partitions, leading to better partitioning results
    that trigger synchronization skipping"; this generator produces that
    regime explicitly so the sync-skipping experiments have a graph whose
    partition-local structure is controllable.
    """
    for name, size in (("num_communities", num_communities),
                       ("community_size", community_size)):
        check_count(name, size, 1, error=GraphError)
    rng = np.random.default_rng(seed)
    n = num_communities * community_size
    intra = num_communities * community_size * intra_edges_per_vertex
    comm_of_edge = np.repeat(np.arange(num_communities),
                             community_size * intra_edges_per_vertex)
    offset = comm_of_edge * community_size
    src = offset + rng.integers(0, community_size, intra)
    dst = offset + rng.integers(0, community_size, intra)
    inter = int(inter_edge_fraction * intra)
    if inter:
        src = np.concatenate([src, rng.integers(0, n, inter)])
        dst = np.concatenate([dst, rng.integers(0, n, inter)])
    weights = rng.uniform(1.0, 10.0, src.size)
    return Graph.from_edges(n, src, dst, weights, name=name)
