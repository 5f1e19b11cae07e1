"""Synchronization skipping (§III-B3).

A global synchronization can be skipped when there are "no de facto
conflicts among distributed nodes" — no node produced an update that
another node needs.  With edges placed on their source's master node,
this reduces to: **every message this iteration targets a vertex mastered
on the node that generated it**.  When that holds for all nodes, each
agent applies its own partial messages locally and the next iteration
starts without touching the upper system's synchronization machinery.

:class:`SkipDetector` also exposes the paper's stated per-vertex check —
"each updated vertex and its outer edges are in the same node" — as
:meth:`updates_are_local`, used to decide whether the *next* iteration can
again proceed from purely local data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..graph.partition import PartitionedGraph
from .template import MessageSet


@dataclass
class SkipStats:
    """Bookkeeping for the Fig. 11(b) experiment."""

    total_iterations: int = 0
    skipped_iterations: int = 0

    @property
    def skip_fraction(self) -> float:
        if self.total_iterations == 0:
            return 0.0
        return self.skipped_iterations / self.total_iterations


class SkipDetector:
    """Decides, per iteration, whether the global sync can be skipped."""

    def __init__(self, pgraph: PartitionedGraph) -> None:
        self._master_of = pgraph.master_of
        self._out_local = pgraph.index.out_local
        self.stats = SkipStats()

    def messages_are_local(self, partials_by_node: Dict[int, MessageSet]
                           ) -> bool:
        """True iff every partial message set targets its own node's
        masters (no inter-node data transfer required)."""
        for node_id, partial in partials_by_node.items():
            if partial.size == 0:
                continue
            if np.any(self._master_of[partial.ids] != node_id):
                return False
        return True

    def updates_are_local(self, changed_by_node: Dict[int, np.ndarray]
                          ) -> bool:
        """The paper's check: every updated vertex's out-edges are local.

        Guarantees the *next* iteration's message generation needs no
        foreign vertex values.
        """
        for node_id, changed in changed_by_node.items():
            if changed.size == 0:
                continue
            if np.any(self._master_of[changed] != node_id):
                return False
            if not np.all(self._out_local[changed]):
                return False
        return True

    def can_skip(self, partials_by_node: Dict[int, MessageSet],
                 changed_by_node: Dict[int, np.ndarray]) -> bool:
        """Record and return the skip decision for one iteration.

        Skipping is sound only when both conditions hold: this iteration's
        messages never crossed nodes (so local application is complete)
        and the resulting updates stay local (so the next iteration can
        start from node-local data).
        """
        skippable = (self.messages_are_local(partials_by_node)
                     and self.updates_are_local(changed_by_node))
        self.stats.total_iterations += 1
        if skippable:
            self.stats.skipped_iterations += 1
        return skippable
