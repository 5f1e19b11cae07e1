"""Label Propagation (LP) on the GX-Plug template.

Community detection by synchronous label propagation: every vertex adopts
the most frequent label among its in-neighbors (ties broken toward the
smaller label).  The paper "limit[s] the iterations to 15 times to avoid
unlimited computation on specific datasets" (§V-A footnote 4); LP is also
the paper's "fully iterative algorithm, corresponding to a low operational
intensity" in the Fig. 14 discussion.

Message payloads are ``[label, count]`` pairs so partial histograms merge
associatively across blocks, daemons and nodes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph import Graph
from ..core.template import AlgorithmState, AlgorithmTemplate, MessageSet


class LabelPropagation(AlgorithmTemplate):
    """Synchronous LP with per-destination label histograms."""

    name = "lp"
    default_max_iterations = 15

    # -- lifecycle ------------------------------------------------------------

    def init_state(self, graph: Graph, **params) -> AlgorithmState:
        n = graph.num_vertices
        values = np.arange(n, dtype=np.float64)  # label = own id initially
        active = np.ones(n, dtype=bool)
        return AlgorithmState(values, active)

    # -- template APIs -----------------------------------------------------------

    def msg_gen(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Each edge votes its source's label with weight 1."""
        labels = values[src_ids]
        ones = np.ones_like(labels)
        return np.column_stack([labels, ones])

    def msg_merge(self, dst_ids: np.ndarray,
                  messages: np.ndarray) -> MessageSet:
        """Aggregate votes into (dst, label) -> count histogram rows."""
        if dst_ids.size == 0:
            return self.empty_messages()
        labels = messages[:, 0]
        counts = messages[:, 1]
        pairs = np.column_stack([dst_ids.astype(np.float64), labels])
        uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
        summed = np.zeros(uniq.shape[0])
        np.add.at(summed, inverse, counts)
        out_ids = uniq[:, 0].astype(np.int64)
        out_data = np.column_stack([uniq[:, 1], summed])
        return MessageSet(out_ids, out_data)

    def merged_size(self, dst_ids: np.ndarray,
                    messages: np.ndarray) -> int:
        """Distinct (dst, label) pairs — the histogram's merge key."""
        if dst_ids.size == 0:
            return 0
        labels = messages[:, 0]
        order = np.lexsort((labels, dst_ids))
        dst, labels = dst_ids[order], labels[order]
        return 1 + int(np.count_nonzero(
            (dst[1:] != dst[:-1]) | (labels[1:] != labels[:-1])))

    def msg_apply(self, values: np.ndarray, merged: MessageSet
                  ) -> Tuple[np.ndarray, np.ndarray]:
        new_values = values.copy()
        if merged.size == 0:
            return new_values, np.empty(0, dtype=np.int64)
        ids = merged.ids
        labels = merged.data[:, 0]
        counts = merged.data[:, 1]
        # Within each destination: highest count first, then smallest label.
        order = np.lexsort((labels, -counts, ids))
        sorted_ids = ids[order]
        first = np.ones(sorted_ids.size, dtype=bool)
        first[1:] = sorted_ids[1:] != sorted_ids[:-1]
        winner_ids = sorted_ids[first]
        winner_labels = labels[order][first]
        changed_mask = new_values[winner_ids] != winner_labels
        new_values[winner_ids] = winner_labels
        changed = winner_ids[changed_mask]
        return new_values, changed

    def payload_width(self) -> int:
        return 2

    # -- iteration control ---------------------------------------------------------

    def next_active(self, graph: Graph, changed_ids: np.ndarray,
                    num_vertices: int) -> np.ndarray:
        """LP is fully iterative: every vertex stays active."""
        return np.ones(num_vertices, dtype=bool)

    def is_converged(self, changed_count: int, iteration: int) -> bool:
        return changed_count == 0

    # -- reference --------------------------------------------------------------

    def reference(self, graph: Graph, iterations: int = 15) -> np.ndarray:
        """Single-machine ground truth (same synchronous update)."""
        state = self.init_state(graph)
        values = state.values
        for _ in range(iterations):
            msgs = self.msg_gen(graph.src, graph.dst, graph.weights, values)
            merged = self.msg_merge(graph.dst, msgs)
            values, changed = self.msg_apply(values, merged)
            if changed.size == 0:
                break
        return values
