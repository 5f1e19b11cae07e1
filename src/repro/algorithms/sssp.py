"""Multi-source Bellman-Ford SSSP on the GX-Plug template.

The paper's SSSP-BF workload "use[s] 4 vertices as source vertices and
calculate[s] their SSSPs simultaneously to make it more compute-intensive"
(§V-A footnote 4).  Vertex values are therefore ``(n, k)`` distance
matrices, one column per source; every edge relaxation updates all k
distances at once.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import AlgorithmError
from ..graph import Graph
from ..core.template import (AlgorithmState, AlgorithmTemplate, MessageSet,
                             scatter_reduce)


class MultiSourceSSSP(AlgorithmTemplate):
    """Bellman-Ford from ``sources`` simultaneously (min-plus semiring)."""

    name = "sssp-bf"
    default_max_iterations = 10_000
    monotone = True
    incremental = "frontier"

    def __init__(self, sources: Sequence[int] = (0,)) -> None:
        if not len(sources):
            raise AlgorithmError("SSSP needs at least one source")
        self.sources = [int(s) for s in sources]

    # -- lifecycle ------------------------------------------------------------

    def init_state(self, graph: Graph, **params) -> AlgorithmState:
        n = graph.num_vertices
        for s in self.sources:
            if not 0 <= s < n:
                raise AlgorithmError(f"source {s} out of range [0, {n})")
        values = np.full((n, len(self.sources)), np.inf)
        for col, s in enumerate(self.sources):
            values[s, col] = 0.0
        active = np.zeros(n, dtype=bool)
        active[self.sources] = True
        return AlgorithmState(values, active)

    # -- template APIs -----------------------------------------------------------

    def msg_gen(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Relax: candidate distance through each edge, per source.

        ``np.take`` moves the rows (~5x a 2-D fancy index on numpy 2.4)
        and the add lands in them, with no second ``(edges, k)`` array.
        """
        candidates = np.take(values, src_ids, axis=0)
        candidates += weights[:, None]
        return candidates

    def msg_merge(self, dst_ids: np.ndarray,
                  messages: np.ndarray) -> MessageSet:
        """Min per destination (columnwise)."""
        return scatter_reduce(dst_ids, messages, np.minimum, np.inf)

    def msg_apply(self, values: np.ndarray, merged: MessageSet
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Keep the shorter distance per source; a vertex changed when
        any of its columns improved, and only changed rows are written
        back.  The test ORs whole columns: numpy's ``any(axis=1)``
        reduces each short row apart, ~10x slower at k = 4."""
        new_values = values.copy()
        if merged.size == 0:
            return new_values, np.empty(0, dtype=np.int64)
        old_rows = np.take(values, merged.ids, axis=0)
        improved = merged.data < old_rows
        moved = improved[:, 0].copy()
        for col in range(1, improved.shape[1]):
            moved |= improved[:, col]
        changed = merged.ids[moved]
        new_values[changed] = np.compress(
            moved, np.where(improved, merged.data, old_rows), axis=0)
        return new_values, changed

    def payload_width(self) -> int:
        return len(self.sources)

    # -- reference --------------------------------------------------------------

    def reference(self, graph: Graph) -> np.ndarray:
        """Single-machine Bellman-Ford ground truth for testing."""
        state = self.init_state(graph)
        values = state.values
        for _ in range(graph.num_vertices + 1):
            cand = values[graph.src] + graph.weights[:, None]
            merged = self.msg_merge(graph.dst, cand)
            values, changed = self.msg_apply(values, merged)
            if changed.size == 0:
                break
        return values
