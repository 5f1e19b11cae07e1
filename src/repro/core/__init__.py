"""GX-Plug middleware core: the paper's primary contribution.

Public surface:

* :class:`~repro.core.middleware.GXPlug` — the middleware itself;
* :class:`~repro.core.config.MiddlewareConfig` — optimization toggles;
* :class:`~repro.core.template.AlgorithmTemplate` — the MSGGen/MSGMerge/
  MSGApply programming template;
* the optimization machinery: pipeline shuffle (§III-A), synchronization
  caching & skipping (§III-B), workload balancing (§III-C).
"""

from .agent import Agent, EdgePassResult
from .balance import (
    accelerators_for_load,
    balancing_factors,
    cluster_coefficients,
    degraded_coefficients,
    estimate_coefficients,
    link_adjusted_coefficients,
    makespan,
    network_coefficients,
    node_coefficient,
    optimal_capacity_factors,
    optimal_makespan,
    optimal_partition_sizes,
    rebalanced_shares,
)
from .blocks import AreaSet, BlockArea, TripletBlock, build_blocks
from .config import (BASELINE, FULL, NETWORK_RESILIENT, PRESETS, RESILIENT,
                     ClusterSpec, MiddlewareConfig, StragglerConfig)
from .daemon import Daemon
from .middleware import GXPlug
from .pipeline import (
    PAPER_FIG15_COEFFICIENTS,
    PipelineCoefficients,
    pipeline_makespan_from_stage_times,
)
from .sync_cache import LRUVertexCache
from .sync_skip import SkipDetector, SkipStats
from .template import (AlgorithmState, AlgorithmTemplate, MessageSet,
                       scatter_reduce)

__all__ = [
    "GXPlug",
    "MiddlewareConfig",
    "StragglerConfig",
    "ClusterSpec",
    "FULL",
    "BASELINE",
    "RESILIENT",
    "NETWORK_RESILIENT",
    "PRESETS",
    "Agent",
    "Daemon",
    "EdgePassResult",
    "AlgorithmTemplate",
    "AlgorithmState",
    "MessageSet",
    "scatter_reduce",
    "TripletBlock",
    "BlockArea",
    "AreaSet",
    "build_blocks",
    "PipelineCoefficients",
    "PAPER_FIG15_COEFFICIENTS",
    "pipeline_makespan_from_stage_times",
    "LRUVertexCache",
    "SkipDetector",
    "SkipStats",
    "optimal_partition_sizes",
    "optimal_makespan",
    "optimal_capacity_factors",
    "balancing_factors",
    "accelerators_for_load",
    "makespan",
    "node_coefficient",
    "cluster_coefficients",
    "degraded_coefficients",
    "estimate_coefficients",
    "rebalanced_shares",
    "network_coefficients",
    "link_adjusted_coefficients",
]
