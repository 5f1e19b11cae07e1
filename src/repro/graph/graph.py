"""Core graph data structure.

A :class:`Graph` is an immutable directed multigraph stored in CSR
(compressed sparse row) form over numpy arrays — the natural layout for the
edge-centric block processing GX-Plug's daemons use (§II-B) and compact
enough to hold the scaled-down twins of the paper's datasets (Table I).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from ..errors import GraphError


def distinct_ids(ids: np.ndarray) -> np.ndarray:
    """The distinct values of an integer id array, ascending — exactly
    what ``np.unique(ids)`` returns, input order and duplicates
    notwithstanding.

    One ``np.sort`` plus an adjacent compare.  Plain ``np.unique`` on
    numpy 2.4 hashes instead, which measures ~13x slower on the int64
    id arrays this package moves around (docs/performance.md).
    """
    return _run_heads(np.sort(ids, axis=None))


def _run_heads(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array: the head of each run."""
    heads = np.ones(ascending.size, dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=heads[1:])
    return ascending[heads]


#: keys with fewer descents than one per _NEARLY_SORTED keys sort faster
#: by timsort than by radix passes (docs/performance.md, "Set-up:
#: building CSR and parts")
_NEARLY_SORTED = 32


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in
    ``[0, bound)``: the one permutation that sorts them and keeps equal
    keys in input order.

    numpy radix-sorts 8- and 16-bit keys and timsorts wider ones.
    Timsort merges the ascending runs it finds, so it wins on keys that
    are nearly sorted already (a mutation's kept edges with a few
    additions appended); those sort as given.  Any other keys are
    narrowed to the smallest width the bound allows.  Below 2**32 that
    is two 16-bit LSD passes: the low halves first, then the high halves
    gathered through that order, whose stability keeps equal high halves
    in low-half order.  Wider bounds sort as given.
    """
    descents = np.count_nonzero(keys[1:] < keys[:-1])
    if descents * _NEARLY_SORTED < keys.size or bound > 1 << 32:
        return np.argsort(keys, kind="stable")
    if bound <= 1 << 8:
        return np.argsort(keys.astype(np.uint8), kind="stable")
    if bound <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    low = np.argsort(keys.astype(np.uint16), kind="stable")
    high = (keys >> 16).astype(np.uint16)[low]
    return low[np.argsort(high, kind="stable")]


def _as_ids(ids: Iterable[int], label: str) -> np.ndarray:
    """``ids`` as a 1-D int64 array; anything but integers is refused
    rather than truncated (an empty sequence has no dtype to check)."""
    arr = ids if isinstance(ids, np.ndarray) else np.asarray(list(ids))
    if arr.ndim != 1:
        raise GraphError(f"{label} must be 1-D, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":
        raise GraphError(f"{label} ids must be integers, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


class Graph:
    """Immutable directed graph in CSR form.

    Attributes
    ----------
    indptr : np.ndarray of int64, shape (n+1,)
        CSR row pointer; out-edges of vertex ``v`` are
        ``dst[indptr[v]:indptr[v+1]]``.
    dst : np.ndarray of int64, shape (m,)
        Destination vertex of each edge, grouped by source.
    src : np.ndarray of int64, shape (m,)
        Source vertex of each edge (redundant with indptr; kept because the
        middleware's edge blocks carry explicit source ids).
    weights : np.ndarray of float64, shape (m,)
        Edge weights (1.0 when the input had none).
    """

    __slots__ = ("indptr", "src", "dst", "weights", "name")

    def __init__(self, indptr: np.ndarray, src: np.ndarray, dst: np.ndarray,
                 weights: np.ndarray, name: str = "graph") -> None:
        self.indptr = indptr
        self.src = src
        self.dst = dst
        self.weights = weights
        self.name = name

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_edges(cls, num_vertices: int,
                   src: Iterable[int], dst: Iterable[int],
                   weights: Optional[Iterable[float]] = None,
                   name: str = "graph") -> "Graph":
        """Build a graph from parallel source/destination sequences.

        Edges are sorted by source (stable), so edge ids in the CSR layout
        may differ from input order; weights follow their edges.
        """
        src_arr = _as_ids(src, "src")
        dst_arr = _as_ids(dst, "dst")
        if src_arr.shape != dst_arr.shape:
            raise GraphError(
                f"src/dst length mismatch: {src_arr.size} vs {dst_arr.size}"
            )
        if num_vertices < 0:
            raise GraphError(f"negative vertex count {num_vertices}")
        if src_arr.size:
            lo = min(src_arr.min(), dst_arr.min())
            hi = max(src_arr.max(), dst_arr.max())
            if lo < 0 or hi >= num_vertices:
                raise GraphError(
                    f"edge endpoint out of range [0, {num_vertices}): "
                    f"saw [{lo}, {hi}]"
                )
        if weights is None:
            w_arr = np.ones(src_arr.size, dtype=np.float64)
        else:
            w_arr = np.asarray(
                list(weights) if not isinstance(weights, np.ndarray) else weights,
                dtype=np.float64)
            if w_arr.shape != src_arr.shape:
                raise GraphError(
                    f"weights length mismatch: {w_arr.size} vs {src_arr.size}"
                )
        order = stable_order(src_arr, num_vertices)
        src_sorted = src_arr[order]
        dst_sorted = dst_arr[order]
        w_sorted = w_arr[order]
        counts = np.bincount(src_sorted, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, src_sorted, dst_sorted, w_sorted, name=name)

    @classmethod
    def empty(cls, num_vertices: int = 0, name: str = "empty") -> "Graph":
        return cls.from_edges(num_vertices, [], [], name=name)

    # -- basic properties ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        return int(self.dst.size)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex, shape (n,)."""
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex, shape (n,)."""
        return np.bincount(self.dst, minlength=self.num_vertices)

    def max_degree(self) -> int:
        if self.num_vertices == 0:
            return 0
        return int(self.out_degrees().max())

    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    # -- navigation ----------------------------------------------------------

    def out_edges(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(destinations, weights)`` of vertex ``v``'s out-edges."""
        if not 0 <= v < self.num_vertices:
            raise GraphError(f"vertex {v} out of range [0, {self.num_vertices})")
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.dst[lo:hi], self.weights[lo:hi]

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_edges(v)[0]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(src, dst, weight)`` triples in CSR order."""
        for i in range(self.num_edges):
            yield int(self.src[i]), int(self.dst[i]), float(self.weights[i])

    # -- transforms ----------------------------------------------------------

    def reverse(self) -> "Graph":
        """The graph with every edge direction flipped."""
        return Graph.from_edges(self.num_vertices, self.dst, self.src,
                                self.weights, name=f"{self.name}-rev")

    def to_undirected(self) -> "Graph":
        """Add the reverse of every edge (doubles the edge count)."""
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        w = np.concatenate([self.weights, self.weights])
        return Graph.from_edges(self.num_vertices, src, dst, w,
                                name=f"{self.name}-undirected")

    def subgraph_edges(self, edge_ids: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``(src, dst, weights)`` arrays for the given edge ids."""
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if edge_ids.size and (edge_ids.min() < 0 or
                              edge_ids.max() >= self.num_edges):
            raise GraphError("edge id out of range")
        return self.src[edge_ids], self.dst[edge_ids], self.weights[edge_ids]

    # -- misc ------------------------------------------------------------------

    def memory_footprint(self, bytes_per_edge: int = 16,
                         bytes_per_vertex: int = 8) -> int:
        """Simulated device footprint used for the OOM checks of Fig. 9(b)."""
        return (self.num_edges * bytes_per_edge
                + self.num_vertices * bytes_per_vertex)

    def __repr__(self) -> str:
        return (f"Graph({self.name!r}, |V|={self.num_vertices}, "
                f"|E|={self.num_edges})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.num_vertices == other.num_vertices
                and np.array_equal(self.src, other.src)
                and np.array_equal(self.dst, other.dst)
                and np.array_equal(self.weights, other.weights))

    def __hash__(self) -> int:  # graphs are mutable-free but large; id hash
        return id(self)
