"""GX-Plug reproduction: middleware for plugging accelerators into
distributed graph processing (Zou, Xie, Li, Kong — ICDE 2022).

A pure-Python, deterministic reproduction of the complete GX-Plug system:
the daemon-agent middleware with its pipeline shuffle, synchronization
caching/skipping and workload balancing; GraphX-like (BSP/JVM) and
PowerGraph-like (GAS/native) upper systems; simulated GPU/CPU
accelerators; and the Gunrock/Lux comparators.  All computation is real
(values match single-machine references); all *timing* is simulated
milliseconds from a discrete-event clock, so every experiment is
reproducible bit-for-bit.

Quickstart::

    from repro import (GXPlug, PowerGraphEngine, PageRank, make_cluster,
                       load_dataset)

    graph = load_dataset("orkut")
    cluster = make_cluster(4, gpus_per_node=1)
    plug = GXPlug(cluster)
    engine = PowerGraphEngine.build(graph, cluster, middleware=plug)
    result = engine.run(PageRank(), max_iterations=10)
    print(result.summary())
"""

from .errors import (
    AcceleratorsExhausted,
    AlgorithmError,
    ChannelClosedError,
    CheckpointError,
    DaemonDead,
    DeadlockError,
    DeviceError,
    DeviceMemoryError,
    EngineError,
    FaultError,
    FaultPlanError,
    GraphError,
    MiddlewareError,
    NetworkFault,
    NodeUnreachable,
    PartitionError,
    ProtocolError,
    ReproError,
    RetryExhausted,
    ShmCorruption,
    ShmError,
    SimulationError,
)
from .fault import (
    ALL_KINDS,
    Checkpoint,
    CheckpointStore,
    CollectiveMonitor,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultReport,
    GRAY_KINDS,
    HeartbeatMonitor,
    NETWORK_KINDS,
    RetryPolicy,
    StragglerDetector,
    fault_report,
)
from .graph import (
    DATASETS,
    Graph,
    dataset_names,
    load_dataset,
    load_synthetic_clustered,
    load_synthetic_uniform,
    partition,
    rmat,
    uniform_random,
)
from .accel import V100, XEON_ACCEL, Accelerator, make_cpu_accelerator, make_gpu
from .cluster import (
    Cluster,
    DistributedNode,
    JVM_RUNTIME,
    LinkModel,
    NATIVE_RUNTIME,
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
    AlgorithmTemplate,
    ClusterSpec,
    GXPlug,
    MessageSet,
    MiddlewareConfig,
    PipelineCoefficients,
    StragglerConfig,
)
from .engines import (AsyncEngine, GraphXEngine,
                      PowerGraphEngine, RunResult)
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
from .baselines import GunrockSystem, LuxSystem

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError", "SimulationError", "DeadlockError", "ChannelClosedError",
    "ShmError", "GraphError", "PartitionError", "DeviceError",
    "DeviceMemoryError", "MiddlewareError", "ProtocolError", "EngineError",
    "AlgorithmError", "FaultError", "FaultPlanError", "DaemonDead",
    "ShmCorruption", "RetryExhausted", "AcceleratorsExhausted",
    "CheckpointError", "NetworkFault", "NodeUnreachable",
    # fault tolerance
    "FaultEvent", "FaultPlan", "FaultInjector", "HeartbeatMonitor",
    "CollectiveMonitor", "RetryPolicy", "Checkpoint", "CheckpointStore",
    "FaultReport", "fault_report", "NETWORK_KINDS", "GRAY_KINDS",
    "ALL_KINDS", "StragglerDetector",
    # graph
    "Graph", "rmat", "uniform_random", "partition", "DATASETS",
    "dataset_names", "load_dataset", "load_synthetic_uniform",
    "load_synthetic_clustered",
    # accel / cluster
    "Accelerator", "V100", "XEON_ACCEL", "make_gpu", "make_cpu_accelerator",
    "Cluster", "DistributedNode", "NetworkModel", "ResilientTransport",
    "Topology", "LinkModel",
    "JVM_RUNTIME",
    "NATIVE_RUNTIME", "make_cluster", "make_heterogeneous_cluster",
    # middleware
    "GXPlug", "MiddlewareConfig", "StragglerConfig", "ClusterSpec",
    "FULL", "BASELINE",
    "RESILIENT", "NETWORK_RESILIENT", "PRESETS",
    "AlgorithmTemplate",
    "MessageSet", "PipelineCoefficients",
    # engines
    "GraphXEngine", "PowerGraphEngine", "AsyncEngine", "RunResult",
    # algorithms
    "MultiSourceSSSP", "PageRank", "LabelPropagation", "BFS",
    "ConnectedComponents", "KCore", "WidestPath", "paper_workloads",
    # baselines
    "GunrockSystem", "LuxSystem",
]
