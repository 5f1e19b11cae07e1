"""Breadth-first search on the GX-Plug template (extension algorithm).

Hop counts from a single source: SSSP over the min-plus semiring with unit
edge weights.  Included as one of the "existing distributed graph
algorithms [that] can be transplanted ... with ease".
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import AlgorithmError
from ..graph import Graph
from ..core.template import (AlgorithmState, AlgorithmTemplate, MessageSet,
                             scatter_reduce)


class BFS(AlgorithmTemplate):
    """Level-synchronous BFS from ``source``; value = hop distance."""

    name = "bfs"
    default_max_iterations = 10_000
    monotone = True

    def __init__(self, source: int = 0) -> None:
        self.source = int(source)

    def init_state(self, graph: Graph, **params) -> AlgorithmState:
        n = graph.num_vertices
        if not 0 <= self.source < n:
            raise AlgorithmError(f"source {self.source} out of range [0,{n})")
        values = np.full(n, np.inf)
        values[self.source] = 0.0
        active = np.zeros(n, dtype=bool)
        active[self.source] = True
        return AlgorithmState(values, active)

    def msg_gen(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        return (values[src_ids] + 1.0)[:, None]

    def msg_merge(self, dst_ids: np.ndarray,
                  messages: np.ndarray) -> MessageSet:
        return scatter_reduce(dst_ids, messages, np.minimum, np.inf)

    def msg_apply(self, values: np.ndarray, merged: MessageSet
                  ) -> Tuple[np.ndarray, np.ndarray]:
        new_values = values.copy()
        if merged.size == 0:
            return new_values, np.empty(0, dtype=np.int64)
        better = merged.data[:, 0] < new_values[merged.ids]
        changed = merged.ids[better]
        new_values[changed] = merged.data[better, 0]
        return new_values, changed

    def reference(self, graph: Graph) -> np.ndarray:
        """Single-machine BFS ground truth."""
        n = graph.num_vertices
        values = np.full(n, np.inf)
        values[self.source] = 0.0
        frontier = [self.source]
        depth = 0.0
        while frontier:
            depth += 1.0
            nxt = []
            for v in frontier:
                for u in graph.out_neighbors(v):
                    if values[u] == np.inf:
                        values[u] = depth
                        nxt.append(int(u))
            frontier = nxt
        return values
