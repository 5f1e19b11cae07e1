"""Plain single-process numpy references the output check compares to.

Deliberately independent of the program: nothing here imports an
engine, a template or a kernel from ``repro`` — only the graph's CSR
arrays are read.  The monotone fixpoints (cc, sssp-bf, bfs) are unique
and every candidate value is one left-to-right float sum along a path,
so a correct run matches them bit for bit; capped PageRank sums its
in-edges in another order than the partitions do and is compared with a
tolerance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: PageRank damping, the program's default
DAMPING = 0.85


def _relax_to_fixpoint(values: np.ndarray, src: np.ndarray,
                       dst: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Iterate ``v[dst] = min(v[dst], v[src] + step)`` until nothing
    improves.  ``values`` is (n, k); ``step`` is (|E|, 1) or 0."""
    n = values.shape[0]
    if src.size == 0:
        return values
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    step = step[order] if isinstance(step, np.ndarray) else step
    starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
    heads = dst[starts]
    for _ in range(n + 1):
        best = np.minimum.reduceat(values[src] + step, starts, axis=0)
        improved = best < values[heads]
        if not improved.any():
            return values
        values[heads] = np.where(improved, best, values[heads])
    raise RuntimeError("reference relaxation did not converge")


def cc(graph) -> np.ndarray:
    """Min-label propagation along directed edges."""
    values = np.arange(graph.num_vertices, dtype=np.float64)[:, None]
    return _relax_to_fixpoint(values, graph.src, graph.dst, 0.0)[:, 0]


def sssp(graph, sources) -> np.ndarray:
    """Bellman-Ford distance matrix, one column per source."""
    values = np.full((graph.num_vertices, len(sources)), np.inf)
    for col, s in enumerate(sources):
        values[s, col] = 0.0
    return _relax_to_fixpoint(values, graph.src, graph.dst,
                              graph.weights[:, None])


def bfs(graph, source: int) -> np.ndarray:
    values = np.full((graph.num_vertices, 1), np.inf)
    values[source, 0] = 0.0
    return _relax_to_fixpoint(values, graph.src, graph.dst, 1.0)[:, 0]


def pagerank(graph, iterations: int,
             start: Optional[np.ndarray] = None) -> np.ndarray:
    """``iterations`` synchronous push-PageRank steps from ``start``
    (all ones when cold)."""
    n = graph.num_vertices
    outdeg = np.bincount(graph.src, minlength=n).astype(np.float64)
    inv = np.where(outdeg > 0, 1.0 / np.maximum(outdeg, 1.0), 0.0)
    values = np.ones(n) if start is None else np.array(start, dtype=float)
    for _ in range(iterations):
        incoming = np.bincount(graph.dst,
                               weights=(values * inv)[graph.src],
                               minlength=n)
        values = (1.0 - DAMPING) + DAMPING * incoming
    return values


def compute(query, graph, start: Optional[np.ndarray] = None) -> np.ndarray:
    """The reference answer to ``query`` (a :class:`perfbench.inputs.Query`)."""
    params = dict(query.params)
    if query.algorithm == "pagerank":
        return pagerank(graph, query.cap, start)
    if query.algorithm == "cc":
        return cc(graph)
    if query.algorithm == "sssp-bf":
        return sssp(graph, params["sources"])
    if query.algorithm == "bfs":
        return bfs(graph, params["source"])
    raise ValueError(f"no reference for {query.algorithm!r}")


def matches(query, got: np.ndarray, want: np.ndarray,
            tolerance: float) -> bool:
    """Exact for the monotone fixpoints, max-abs ``tolerance`` for
    PageRank."""
    got = np.asarray(got)
    if got.shape != want.shape:
        return False
    if query.algorithm == "pagerank":
        return bool(np.max(np.abs(got - want), initial=0.0) <= tolerance)
    return bool(np.array_equal(got, want))
