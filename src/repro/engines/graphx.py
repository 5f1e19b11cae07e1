"""GraphX-like upper system: BSP / vertex-centric on a JVM runtime.

Models GraphX [2] as the paper uses it: Pregel-style BSP supersteps
(call order Gen -> Merge -> Apply), hash edge-cut partitioning by default,
and a JVM host runtime whose boundary costs come from the JNI transmitter
simulation (§IV-B1).
"""

from __future__ import annotations

from typing import Optional

from ..cluster.cluster import Cluster
from ..core.middleware import GXPlug
from ..graph.graph import Graph
from ..graph.partition import hash_partition
from .base import IterativeEngine


class GraphXEngine(IterativeEngine):
    """BSP vertex-centric engine on the JVM (GraphX stand-in)."""

    model = "bsp"
    name = "graphx"
    host_runtime = "jvm"
    edge_scan = "full"  # Spark materializes the full triplet view

    @classmethod
    def build(cls, graph: Graph, cluster: Cluster,
              middleware: Optional[GXPlug] = None,
              shares=None) -> "GraphXEngine":
        """Partition ``graph`` GraphX-style (hash) and build the engine."""
        pgraph = hash_partition(graph, cluster.num_nodes, shares=shares)
        return cls(pgraph, cluster, middleware)
