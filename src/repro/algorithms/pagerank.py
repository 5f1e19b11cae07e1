"""PageRank on the GX-Plug template.

Pregel-style push PageRank: each vertex pushes ``rank / out_degree`` along
its out-edges; the new rank is ``(1 - d) + d * sum(incoming)``.  All
vertices stay active every iteration (rank keeps flowing), so the paper
runs PR for a fixed iteration budget — it is the "high operational
intensity" workload of Fig. 14.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import AlgorithmError
from ..graph import Graph
from ..core.template import (AlgorithmState, AlgorithmTemplate, MessageSet,
                             scatter_reduce)


class PageRank(AlgorithmTemplate):
    """Fixed-iteration push PageRank (damping ``d``, default 0.85)."""

    name = "pagerank"
    default_max_iterations = 10
    # the damped update is a contraction: any seed converges to the
    # unique stationary point, so warm starts survive every mutation
    incremental = "fixpoint"

    def __init__(self, damping: float = 0.85, tolerance: float = 1e-12
                 ) -> None:
        if not 0.0 < damping < 1.0:
            raise AlgorithmError(f"damping must be in (0,1), got {damping}")
        if tolerance < 0:
            raise AlgorithmError(f"negative tolerance {tolerance}")
        self.damping = damping
        self.tolerance = tolerance
        self._inv_outdeg: np.ndarray = np.empty(0)

    # -- lifecycle ------------------------------------------------------------

    def init_state(self, graph: Graph, **params) -> AlgorithmState:
        n = graph.num_vertices
        outdeg = graph.out_degrees().astype(np.float64)
        with np.errstate(divide="ignore"):
            inv = np.where(outdeg > 0, 1.0 / np.maximum(outdeg, 1), 0.0)
        self._inv_outdeg = inv
        values = np.ones(n)
        active = np.ones(n, dtype=bool)
        return AlgorithmState(values, active)

    # -- template APIs -----------------------------------------------------------

    def msg_gen(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        if self._inv_outdeg.size == 0:
            raise AlgorithmError("msg_gen before init_state")
        contrib = values[src_ids] * self._inv_outdeg[src_ids]
        return contrib[:, None]

    def msg_merge(self, dst_ids: np.ndarray,
                  messages: np.ndarray) -> MessageSet:
        return scatter_reduce(dst_ids, messages, np.add, 0.0)

    def msg_apply(self, values: np.ndarray, merged: MessageSet
                  ) -> Tuple[np.ndarray, np.ndarray]:
        incoming = np.zeros_like(values)
        if merged.size:
            incoming[merged.ids] = merged.data[:, 0]
        new_values = (1.0 - self.damping) + self.damping * incoming
        delta = np.abs(new_values - values)
        changed = np.nonzero(delta > self.tolerance)[0].astype(np.int64)
        return new_values, changed

    # -- iteration control ---------------------------------------------------------

    def next_active(self, graph: Graph, changed_ids: np.ndarray,
                    num_vertices: int) -> np.ndarray:
        """PR keeps every vertex active (rank flows on all edges)."""
        return np.ones(num_vertices, dtype=bool)

    def is_converged(self, changed_count: int, iteration: int) -> bool:
        return changed_count == 0

    # -- reference --------------------------------------------------------------

    def reference(self, graph: Graph, iterations: int = 10) -> np.ndarray:
        """Single-machine ground truth (same fixed-point map)."""
        state = self.init_state(graph)
        values = state.values
        for _ in range(iterations):
            msgs = self.msg_gen(graph.src, graph.dst, graph.weights, values)
            merged = self.msg_merge(graph.dst, msgs)
            values, changed = self.msg_apply(values, merged)
            if changed.size == 0:
                break
        return values
