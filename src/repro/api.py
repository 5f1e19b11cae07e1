"""The stable public surface of the GX-Plug reproduction.

Import from here and nothing breaks when internals move::

    from repro.api import ClusterSpec, MiddlewareConfig, GXPlug, deploy

    cluster = ClusterSpec(nodes=8, gpus_per_node=1,
                          topology="rack:2x4").build()
    config = MiddlewareConfig.preset("network-resilient")
    config = config.with_(straggler=config.straggler.with_(link_ratio=2.5))
    plug = GXPlug(cluster, config)

Two frozen dataclasses describe a deployment, each checking its own
fields at construction:

* :class:`ClusterSpec` — the hardware: node/accelerator counts, host
  runtime, interconnect overrides and the rack :class:`Topology`;
* :class:`MiddlewareConfig` — the behaviour: a named preset
  (:data:`PRESETS`) refined by ``with_(field=value, ...)``.

Everything else re-exported here (engines, algorithms, graph loaders,
fault plans) is the same object the subpackages define; this module
only pins the names user code should rely on.
"""

from __future__ import annotations

from .algorithms import (
    BFS,
    ConnectedComponents,
    KCore,
    LabelPropagation,
    MultiSourceSSSP,
    PageRank,
    WidestPath,
    paper_workloads,
)
from .cluster import (
    DEFAULT_CROSS_BYTE_FACTOR,
    DEFAULT_CROSS_LATENCY_FACTOR,
    DEFAULT_NETWORK,
    Cluster,
    DistributedNode,
    LinkModel,
    NetworkModel,
    ResilientTransport,
    Topology,
    make_cluster,
    make_heterogeneous_cluster,
)
from .core import (
    BASELINE,
    FULL,
    NETWORK_RESILIENT,
    PRESETS,
    RESILIENT,
    AlgorithmState,
    AlgorithmTemplate,
    ClusterSpec,
    GXPlug,
    MessageSet,
    MiddlewareConfig,
    StragglerConfig,
    accelerators_for_load,
    balancing_factors,
    cluster_coefficients,
    link_adjusted_coefficients,
    network_coefficients,
    optimal_makespan,
    optimal_partition_sizes,
    scatter_reduce,
)
from .core.config import RuntimeConfig  # the old name; perfbench imports it
from .engines import AsyncEngine, GraphXEngine, PowerGraphEngine, RunResult
from .fault import (
    ALL_KINDS,
    CRASH,
    FLAKY_SLOWDOWN,
    GRAY_KINDS,
    HANG,
    KINDS,
    LINK_FLAKY,
    LINK_KINDS,
    LINK_SLOW,
    MESSAGE_DELAY,
    MESSAGE_DROP,
    NET_DELAY,
    NET_DROP,
    NET_DUP,
    NETWORK_KINDS,
    NODE_PARTITION,
    SHM_CORRUPTION,
    SHM_SLOW,
    SLOWDOWN,
    SYNC_FAIL,
    FaultPlan,
    FaultReport,
    StragglerDetector,
    fault_report,
)
from .graph import (
    DATASETS,
    Graph,
    MutationBatch,
    clustering_partition,
    dataset_names,
    hash_partition,
    load_dataset,
    load_synthetic_clustered,
    load_synthetic_uniform,
    partition,
    plan_warm_start,
)
from .serve import (
    GraphService,
    GraphSnapshot,
    GraphStore,
    Job,
    JobSpec,
    ResultCache,
)


def deploy(spec: ClusterSpec, config: MiddlewareConfig = FULL) -> GXPlug:
    """Build the cluster described by ``spec`` and plug the middleware
    configured by ``config`` into it — the two-line quickstart."""
    return GXPlug(spec.build(), config)


def mutate(graph: Graph, batch):
    """One-shot functional mutation: apply ``batch`` to a bare graph.

    ``batch`` is a :class:`MutationBatch` or its ``to_doc()`` mapping;
    returns ``(new_graph, effect)`` — the mutated graph plus the
    :class:`~repro.graph.mutations.MutationEffect` summarizing the
    dirty frontier.  The serving counterpart is
    :meth:`GraphService.mutate`, which adds versioning, snapshot
    isolation, journaling and exactly-once semantics on top of the
    same apply.
    """
    if not isinstance(batch, MutationBatch):
        batch = MutationBatch.from_doc(batch)
    return batch.apply(graph)


__all__ = [
    # the deployment description
    "ClusterSpec",
    "MiddlewareConfig",
    "deploy",
    # middleware + presets
    "GXPlug",
    "StragglerConfig",
    "PRESETS",
    "FULL",
    "BASELINE",
    "RESILIENT",
    "NETWORK_RESILIENT",
    # cluster layer
    "Cluster",
    "DistributedNode",
    "NetworkModel",
    "DEFAULT_NETWORK",
    "Topology",
    "LinkModel",
    "DEFAULT_CROSS_LATENCY_FACTOR",
    "DEFAULT_CROSS_BYTE_FACTOR",
    "ResilientTransport",
    "make_cluster",
    "make_heterogeneous_cluster",
    # engines
    "GraphXEngine",
    "PowerGraphEngine",
    "AsyncEngine",
    "RunResult",
    # workload-balancing analysis (§III-C Lemmas 2-3)
    "balancing_factors",
    "optimal_partition_sizes",
    "optimal_makespan",
    "accelerators_for_load",
    "cluster_coefficients",
    "network_coefficients",
    "link_adjusted_coefficients",
    # programming template + algorithms
    "AlgorithmTemplate",
    "AlgorithmState",
    "MessageSet",
    "scatter_reduce",
    "PageRank",
    "MultiSourceSSSP",
    "LabelPropagation",
    "BFS",
    "ConnectedComponents",
    "KCore",
    "WidestPath",
    "paper_workloads",
    # serving layer
    "GraphService",
    "GraphStore",
    "GraphSnapshot",
    "ResultCache",
    "JobSpec",
    "Job",
    # streaming mutations + incremental recompute
    "MutationBatch",
    "plan_warm_start",
    "mutate",
    # graphs
    "Graph",
    "DATASETS",
    "dataset_names",
    "load_dataset",
    "load_synthetic_uniform",
    "load_synthetic_clustered",
    "partition",
    "hash_partition",
    "clustering_partition",
    # fault subsystem
    "FaultPlan",
    "FaultReport",
    "fault_report",
    "StragglerDetector",
    "KINDS",
    "ALL_KINDS",
    "NETWORK_KINDS",
    "GRAY_KINDS",
    "LINK_KINDS",
    "CRASH",
    "HANG",
    "SHM_CORRUPTION",
    "MESSAGE_DROP",
    "MESSAGE_DELAY",
    "NET_DROP",
    "NET_DELAY",
    "NET_DUP",
    "SYNC_FAIL",
    "NODE_PARTITION",
    "SLOWDOWN",
    "SHM_SLOW",
    "FLAKY_SLOWDOWN",
    "LINK_SLOW",
    "LINK_FLAKY",
]
