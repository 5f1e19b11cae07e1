"""Widest (bottleneck) paths on the GX-Plug template (extension).

Single-source widest path over the max-min semiring: the value of a
vertex is the maximum over all paths from the source of the minimum edge
weight along the path — the classic bottleneck-bandwidth problem of
network routing.  A drop-in demonstration that the template supports
semirings beyond min-plus.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import AlgorithmError
from ..graph import Graph
from ..core.template import (AlgorithmState, AlgorithmTemplate, MessageSet,
                             scatter_reduce)


class WidestPath(AlgorithmTemplate):
    """Max-min propagation from ``source`` (value = path bottleneck)."""

    name = "widest-path"
    default_max_iterations = 10_000
    monotone = True   # values only increase toward the fixed point

    def __init__(self, source: int = 0) -> None:
        self.source = int(source)

    def init_state(self, graph: Graph, **params) -> AlgorithmState:
        n = graph.num_vertices
        if not 0 <= self.source < n:
            raise AlgorithmError(f"source {self.source} out of range "
                                 f"[0, {n})")
        values = np.zeros(n)
        values[self.source] = np.inf   # unlimited bandwidth to itself
        active = np.zeros(n, dtype=bool)
        active[self.source] = True
        return AlgorithmState(values, active)

    def msg_gen(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.minimum(values[src_ids], weights)[:, None]

    def msg_merge(self, dst_ids: np.ndarray,
                  messages: np.ndarray) -> MessageSet:
        return scatter_reduce(dst_ids, messages, np.maximum, -np.inf)

    def msg_apply(self, values: np.ndarray, merged: MessageSet
                  ) -> Tuple[np.ndarray, np.ndarray]:
        new_values = values.copy()
        if merged.size == 0:
            return new_values, np.empty(0, dtype=np.int64)
        better = merged.data[:, 0] > new_values[merged.ids]
        changed = merged.ids[better]
        new_values[changed] = merged.data[better, 0]
        return new_values, changed

    def reference(self, graph: Graph) -> np.ndarray:
        """Single-machine fixed point of the same max-min relaxation."""
        state = self.init_state(graph)
        values = state.values
        for _ in range(graph.num_vertices + 1):
            msgs = self.msg_gen(graph.src, graph.dst, graph.weights,
                                values)
            merged = self.msg_merge(graph.dst, msgs)
            values, changed = self.msg_apply(values, merged)
            if changed.size == 0:
                break
        return values
