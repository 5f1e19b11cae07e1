"""Cluster assembly helpers.

A :class:`Cluster` is the set of distributed nodes an engine runs over,
plus the :class:`~repro.cluster.topology.Topology` that prices every
collective among them.  Factories build the configurations the
paper evaluates: homogeneous GPU clusters (Fig. 9), heterogeneous
CPU+GPU mixes (Fig. 9(d), Fig. 12(a)), and accelerator-less baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..accel import make_cpu_accelerator, make_gpu
from ..errors import SimulationError
from .node import NATIVE_RUNTIME, DistributedNode, HostRuntime
from .topology import Topology


@dataclass
class Cluster:
    """A set of distributed nodes joined by a network.

    ``topology`` is the rack :class:`Topology` every collective is
    priced on, and must span exactly this cluster's nodes.  ``None``
    builds the one-rack topology over the default
    :class:`~repro.cluster.network.NetworkModel` — the uniform
    interconnect.
    """

    nodes: List[DistributedNode]
    topology: Optional[Topology] = None

    def __post_init__(self) -> None:
        if not self.nodes:
            raise SimulationError("a cluster needs at least one node")
        ids = [n.node_id for n in self.nodes]
        if ids != list(range(len(ids))):
            raise SimulationError(
                f"node ids must be 0..{len(ids) - 1} in order, got {ids}"
            )
        self.topology = self.topology or Topology([ids])
        if self.topology.num_nodes != len(self.nodes):
            raise SimulationError(
                f"topology spans {self.topology.num_nodes} nodes, cluster "
                f"has {len(self.nodes)}")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def capacity_factors(self) -> List[float]:
        """Per-node 1/c_j values (§III-C) for workload balancing."""
        return [n.capacity_factor() for n in self.nodes]

    def repartition_cost_ms(self, nbytes: int, network=None,
                            moved_by_node=None) -> float:
        """Simulated cost of shipping ``nbytes`` of re-homed master rows
        after a mid-run Lemma-2 repartition (degradation rebalancing or
        online re-estimation): one tree collective across every node,
        plus the slowest host runtime's fixed synchronization overhead —
        every node re-enters the barrier around the new layout.

        ``network`` — where the collective runs; defaults to
        :attr:`topology`, engines with a middleware pass its resilient
        transport.  ``moved_by_node`` — per-destination byte
        weights, so the migration is priced over the links it actually
        crosses.
        """
        net = network if network is not None else self.topology
        cost = net.sync_ms(self.num_nodes, nbytes,
                           bytes_by_node=moved_by_node)
        return cost + max(n.runtime.sync_fixed_ms for n in self.nodes)

    def total_gpu_count(self) -> int:
        return sum(
            1 for n in self.nodes for a in n.accelerators
            if a.model.threads >= 1024
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cluster({self.num_nodes} nodes)"


def make_cluster(num_nodes: int, *, gpus_per_node: int = 0,
                 cpu_accels_per_node: int = 0,
                 runtime: HostRuntime = NATIVE_RUNTIME,
                 topology: Optional[Topology] = None) -> Cluster:
    """Homogeneous cluster: every node gets the same accelerator set.

    ``topology=None`` is the one-rack topology over the default
    :class:`~repro.cluster.network.NetworkModel`; describe any other
    interconnect with :class:`repro.api.ClusterSpec`.
    """
    if num_nodes < 1:
        raise SimulationError(f"need >=1 nodes, got {num_nodes}")
    if gpus_per_node < 0 or cpu_accels_per_node < 0:
        raise SimulationError("accelerator counts must be >= 0")
    nodes = []
    device_id = 0
    for node_id in range(num_nodes):
        accels = []
        for _ in range(gpus_per_node):
            accels.append(make_gpu(device_id))
            device_id += 1
        for _ in range(cpu_accels_per_node):
            accels.append(make_cpu_accelerator(device_id))
            device_id += 1
        nodes.append(DistributedNode(node_id, runtime, accels))
    return Cluster(nodes, topology)


def make_heterogeneous_cluster(accel_specs: Sequence[Sequence[str]], *,
                               runtime: HostRuntime = NATIVE_RUNTIME
                               ) -> Cluster:
    """Cluster from explicit per-node accelerator lists.

    ``accel_specs[j]`` is a sequence of ``"gpu"`` / ``"cpu"`` strings, e.g.
    the Fig. 12(a) setup is ``[["gpu", "cpu"], ["gpu", "gpu", "gpu", "cpu"]]``.
    """
    if not accel_specs:
        raise SimulationError("need at least one node spec")
    nodes = []
    device_id = 0
    for node_id, spec in enumerate(accel_specs):
        accels = []
        for kind in spec:
            if kind == "gpu":
                accels.append(make_gpu(device_id))
            elif kind == "cpu":
                accels.append(make_cpu_accelerator(device_id))
            else:
                raise SimulationError(
                    f"unknown accelerator kind {kind!r} (want 'gpu'/'cpu')"
                )
            device_id += 1
        nodes.append(DistributedNode(node_id, runtime, accels))
    return Cluster(nodes)
