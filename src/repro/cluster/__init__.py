"""Simulated distributed cluster: nodes, host runtimes, interconnect."""

from .network import DEFAULT_NETWORK, NetworkModel, ResilientTransport
from .node import (HOST_RUNTIMES, JVM_RUNTIME, NATIVE_RUNTIME,
                   DistributedNode, HostRuntime)
from .topology import (DEFAULT_CROSS_BYTE_FACTOR,
                       DEFAULT_CROSS_LATENCY_FACTOR, LinkModel, Topology)
from .cluster import Cluster, make_cluster, make_heterogeneous_cluster

__all__ = [
    "NetworkModel",
    "ResilientTransport",
    "DEFAULT_NETWORK",
    "LinkModel",
    "Topology",
    "DEFAULT_CROSS_LATENCY_FACTOR",
    "DEFAULT_CROSS_BYTE_FACTOR",
    "HostRuntime",
    "HOST_RUNTIMES",
    "JVM_RUNTIME",
    "NATIVE_RUNTIME",
    "DistributedNode",
    "Cluster",
    "make_cluster",
    "make_heterogeneous_cluster",
]
