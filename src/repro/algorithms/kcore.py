"""k-core decomposition on the GX-Plug template (extension algorithm).

Distributed peeling: a vertex whose remaining degree is below ``k`` is
*removed*; each removal sends a decrement event along the vertex's
out-edges; receivers whose degree drops below ``k`` are removed next, and
so on until a fixed point — the surviving vertices form the k-core.

Intended for symmetrized graphs (``graph.to_undirected()``), where the
out-degree equals the undirected degree.

Messages are removal *events* (sent exactly once per removed vertex), so
the algorithm declares :attr:`requires_frontier_scan`; re-scanning the
full edge set each superstep would replay the decrements.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import AlgorithmError
from ..graph import Graph
from ..core.template import (AlgorithmState, AlgorithmTemplate, MessageSet,
                             scatter_reduce)

_DEG = 0   # value column: remaining degree
_OUT = 1   # value column: 1.0 once the vertex is removed from the core


class KCore(AlgorithmTemplate):
    """Membership in the k-core via distributed peeling."""

    name = "kcore"
    default_max_iterations = 10_000
    # removals are monotone, but the decrement *messages* are counts —
    # not idempotent — so replaying them (as the combined-local-iteration
    # superstep does for vertex-cut replicas) would double-count; stay on
    # the strict per-iteration path
    monotone = False
    requires_frontier_scan = True   # removal events must not replay

    def __init__(self, k: int) -> None:
        if k < 1:
            raise AlgorithmError(f"k must be >= 1, got {k}")
        self.k = int(k)

    # -- lifecycle ------------------------------------------------------------

    def init_state(self, graph: Graph, **params) -> AlgorithmState:
        n = graph.num_vertices
        degrees = graph.out_degrees().astype(np.float64)
        removed = (degrees < self.k).astype(np.float64)
        values = np.column_stack([degrees, removed])
        active = removed.astype(bool)   # initially removed vertices peel
        return AlgorithmState(values, active)

    # -- template APIs -----------------------------------------------------------

    def msg_gen(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        """A removed source decrements each out-neighbour by one (only
        the flag column moves, not whole rows)."""
        return np.take(values[:, _OUT], src_ids)[:, None]

    def msg_merge(self, dst_ids: np.ndarray,
                  messages: np.ndarray) -> MessageSet:
        return scatter_reduce(dst_ids, messages, np.add, 0.0)

    def msg_apply(self, values: np.ndarray, merged: MessageSet
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Decrement surviving receivers; flag the ones peeling below k.

        ``changed`` reports every vertex whose row changed (the engine
        persists exactly those rows): decremented survivors plus the
        newly removed.  Already-removed vertices ignore messages, so a
        removal event is emitted exactly once per vertex.
        """
        new_values = values.copy()
        if merged.size == 0:
            return new_values, np.empty(0, dtype=np.int64)
        ids = merged.ids
        dec = merged.data[:, 0]
        affected_sel = (values[ids, _OUT] == 0.0) & (dec > 0)
        affected = ids[affected_sel]
        new_values[affected, _DEG] -= dec[affected_sel]
        newly_removed = affected[new_values[affected, _DEG] < self.k]
        new_values[newly_removed, _OUT] = 1.0
        return new_values, affected

    def payload_width(self) -> int:
        return 1

    # -- results -------------------------------------------------------------------

    @staticmethod
    def core_members(values: np.ndarray) -> np.ndarray:
        """Vertex ids belonging to the k-core in a finished value table."""
        return np.nonzero(values[:, _OUT] == 0.0)[0]

    # -- reference --------------------------------------------------------------

    def reference(self, graph: Graph) -> np.ndarray:
        """Single-machine peeling ground truth."""
        state = self.init_state(graph)
        values = state.values
        frontier = np.nonzero(values[:, _OUT] == 1.0)[0]
        while frontier.size:
            sel = np.isin(graph.src, frontier)
            msgs = self.msg_gen(graph.src[sel], graph.dst[sel],
                                graph.weights[sel], values)
            merged = self.msg_merge(graph.dst[sel], msgs)
            values, frontier = self.msg_apply(values, merged)
        return values
