"""GraphX-like upper system: BSP / vertex-centric on a JVM runtime.

Models GraphX [2] as the paper uses it: Pregel-style BSP supersteps
(call order Gen -> Merge -> Apply), hash edge-cut partitioning by default,
and a JVM host runtime whose boundary costs come from the JNI transmitter
simulation (§IV-B1).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..cluster.cluster import Cluster
from ..cluster.node import JVM_RUNTIME, HostRuntime
from ..core.middleware import GXPlug
from ..graph.graph import Graph
from ..graph.partition import PartitionedGraph, hash_partition
from .base import IterativeEngine
from .jni import JNIConfig, OPTIMIZED_JNI


def jvm_runtime_for(jni: JNIConfig) -> HostRuntime:
    """A JVM host runtime whose k1/k3 reflect the given JNI configuration."""
    per_entity = jni.ms_per_entity()
    return replace(
        JVM_RUNTIME,
        download_ms_per_entity=per_entity,
        upload_ms_per_entity=per_entity,
    )


class GraphXEngine(IterativeEngine):
    """BSP vertex-centric engine on the JVM (GraphX stand-in)."""

    model = "bsp"
    name = "graphx"
    host_runtime = "jvm"
    edge_scan = "full"  # Spark materializes the full triplet view

    def __init__(self, pgraph: PartitionedGraph, cluster: Cluster,
                 middleware: Optional[GXPlug] = None,
                 jni: JNIConfig = OPTIMIZED_JNI) -> None:
        super().__init__(pgraph, cluster, middleware)
        self.jni = jni

    @classmethod
    def build(cls, graph: Graph, cluster: Cluster,
              middleware: Optional[GXPlug] = None,
              shares=None) -> "GraphXEngine":
        """Partition ``graph`` GraphX-style (hash) and build the engine."""
        pgraph = hash_partition(graph, cluster.num_nodes, shares=shares)
        return cls(pgraph, cluster, middleware)
