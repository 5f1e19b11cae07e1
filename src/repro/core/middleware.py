"""GX-Plug: the middleware facade.

A :class:`GXPlug` instance owns one agent per distributed node (each agent
attached to the node's accelerators as daemons).  Plugging it into an
engine is the paper's "few lines of code"::

    cluster = make_cluster(4, gpus_per_node=1)
    plug = GXPlug(cluster)
    engine = PowerGraphEngine(pgraph, cluster, middleware=plug)
    result = engine.run(PageRank())
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster.cluster import Cluster
from ..errors import MiddlewareError
from ..fault.inject import FaultInjector
from ..fault.report import FaultReport, fault_report
from ..fault.straggler import StragglerDetector
from ..ipc.shm import ShmRegistry
from .agent import Agent
from .config import MiddlewareConfig


class GXPlug:
    """The middleware: agents + daemons for every node of a cluster."""

    def __init__(self, cluster: Cluster,
                 config: Optional[MiddlewareConfig] = None) -> None:
        self.cluster = cluster
        self.config = config if config is not None else MiddlewareConfig()
        self.registry = ShmRegistry()
        accelerated = [n for n in cluster.nodes if n.accelerators]
        if not accelerated:
            raise MiddlewareError(
                "GX-Plug needs at least one accelerator in the cluster"
            )
        if len(accelerated) != len(cluster.nodes):
            missing = [n.node_id for n in cluster.nodes
                       if not n.accelerators]
            raise MiddlewareError(
                f"every node needs an accelerator to plug; nodes {missing} "
                f"have none"
            )
        self.agents: Dict[int, Agent] = {
            node.node_id: Agent(node, self.registry, self.config)
            for node in cluster.nodes
        }
        # gray-failure tolerance: one cluster-wide straggler detector so
        # the cross-daemon median inflation spans every node's daemons
        self.straggler: Optional[StragglerDetector] = None
        if self.config.straggler.enabled:
            self.straggler = StragglerDetector(
                ratio=self.config.straggler.ratio,
                link_ratio=self.config.straggler.link_ratio)
            for agent in self.agents.values():
                agent.set_straggler_detector(self.straggler)
        self.connected = False
        # network fault tolerance: route collectives through the
        # resilient transport so armed network faults have a place to go
        self.transport = None
        if self.config.network_resilient:
            self.transport = cluster.resilient_transport()
            # per-link gray-failure detection: the transport reports
            # every topology collective's fragment times to the detector
            if self.straggler is not None:
                self.transport.set_link_observer(self.straggler)
        # fault subsystem: the injector holds the deterministic schedule
        # and arms it superstep by superstep (engines call arm_faults)
        self.injector: Optional[FaultInjector] = None
        if self.config.fault_plan is not None:
            self.injector = FaultInjector(self.config.fault_plan)
            self.injector.validate_against(self.agents, self.transport)

    def connect_all(self) -> float:
        """Connect every agent; returns the total simulated setup cost.

        Daemons on different nodes initialize in parallel, so the cluster
        pays the slowest node's setup, not the sum.
        """
        if self.connected:
            raise MiddlewareError("middleware already connected")
        self.connected = True
        costs = [agent.connect() for agent in self.agents.values()]
        return max(costs) if costs else 0.0

    def disconnect_all(self) -> None:
        if not self.connected:
            return
        for agent in self.agents.values():
            agent.disconnect()
        self.connected = False

    def agent_for(self, node_id: int) -> Agent:
        if node_id not in self.agents:
            raise MiddlewareError(f"no agent for node {node_id}")
        return self.agents[node_id]

    def arm_faults(self, superstep: int) -> int:
        """Arm the fault plan's events for ``superstep``; returns how many
        fired.  A no-op without a plan (the common case)."""
        if self.injector is None:
            return 0
        return self.injector.arm(superstep, self.agents, self.transport)

    def fault_report(self, result=None) -> FaultReport:
        """Aggregate fault/recovery counters across the deployment."""
        return fault_report(self, result)

    def degraded_nodes(self) -> List[int]:
        """Nodes that fell back to their host compute path."""
        return sorted(node_id for node_id, agent in self.agents.items()
                      if agent.degraded)

    def total_middleware_ms(self) -> float:
        return sum(a.total_middleware_ms for a in self.agents.values())

    def scheduler_counters(self) -> Dict[str, int]:
        """Event-loop telemetry summed across every agent's passes:
        events popped, cohort batches, largest cohort, heap peak."""
        agents = self.agents.values()
        return {
            "sched_events": sum(a.sched_events for a in agents),
            "sched_batches": sum(a.sched_batches for a in agents),
            "sched_max_batch": max(
                (a.sched_max_batch for a in agents), default=0),
            "sched_heap_peak": max(
                (a.sched_heap_peak for a in agents), default=0),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"GXPlug({len(self.agents)} agents, "
                f"connected={self.connected})")
