"""Connected components on the GX-Plug template (extension algorithm).

Min-label propagation: every vertex adopts the smallest label reachable
along edges.  For true (undirected) connected components, run it on
``graph.to_undirected()``; on a directed graph it computes the minimum
ancestor label instead, which is itself a useful primitive.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph import Graph
from ..core.template import (AlgorithmState, AlgorithmTemplate, MessageSet,
                             scatter_reduce)


class ConnectedComponents(AlgorithmTemplate):
    """HashMin connected components (labels converge to component minima)."""

    name = "cc"
    default_max_iterations = 10_000
    monotone = True
    incremental = "frontier"

    def init_state(self, graph: Graph, **params) -> AlgorithmState:
        n = graph.num_vertices
        values = np.arange(n, dtype=np.float64)
        active = np.ones(n, dtype=bool)
        return AlgorithmState(values, active)

    def msg_gen(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        return values[src_ids][:, None]

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
        """Single-machine fixed point of the same min-propagation."""
        state = self.init_state(graph)
        values = state.values
        for _ in range(graph.num_vertices + 1):
            msgs = self.msg_gen(graph.src, graph.dst, graph.weights, values)
            merged = self.msg_merge(graph.dst, msgs)
            values, changed = self.msg_apply(values, merged)
            if changed.size == 0:
                break
        return values
