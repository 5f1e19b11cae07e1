"""Tests for the cluster substrate."""

import pytest

from repro.cluster import (
    Cluster,
    DistributedNode,
    JVM_RUNTIME,
    NATIVE_RUNTIME,
    NetworkModel,
    Topology,
    make_cluster,
    make_heterogeneous_cluster,
)
from repro.accel import make_cpu_accelerator, make_gpu
from repro.errors import SimulationError


def one_rack(num_nodes, net=None):
    """The uniform interconnect: every node in one rack over ``net``."""
    return Topology([range(num_nodes)], base=net)


def test_network_transfer_linear():
    net = NetworkModel(latency_ms=1.0, ms_per_byte=0.01, coord_ms_per_node=0.0)
    topo = one_rack(2, net)
    assert topo.fragment_ms(1, 0) == pytest.approx(1.0)
    assert topo.fragment_ms(1, 100) == pytest.approx(2.0)


def test_network_sync_grows_with_nodes():
    costs = [one_rack(n).sync_ms(n, 1000) for n in (1, 2, 4, 8, 16, 32)]
    assert all(a < b for a, b in zip(costs, costs[1:]))


def test_network_single_node_no_hops():
    net = NetworkModel(latency_ms=5.0, ms_per_byte=0.0, coord_ms_per_node=1.0)
    assert one_rack(1, net).sync_ms(1, 0) == pytest.approx(1.0)
    assert one_rack(2, net).sync_ms(2, 0) == pytest.approx(5.0 + 2.0)


def test_network_validation():
    with pytest.raises(SimulationError):
        NetworkModel(latency_ms=-1.0)
    topo = one_rack(2)
    with pytest.raises(SimulationError):
        topo.fragment_ms(0, -1)
    with pytest.raises(SimulationError):
        topo.sync_ms(0, 10)
    with pytest.raises(SimulationError):
        topo.broadcast_ms(2, -1)
    with pytest.raises(SimulationError):
        topo.sync_ms(2, -1)
    for node_query in (topo.rack_of, topo.path_ms_per_byte,
                       lambda node: topo.fragment_ms(node, 10)):
        with pytest.raises(SimulationError, match="unknown node 2"):
            node_query(2)


def test_jvm_runtime_costlier_than_native():
    """§IV-B1: crossing the JVM/JNI boundary costs more per entity."""
    assert (JVM_RUNTIME.download_ms_per_entity
            > NATIVE_RUNTIME.download_ms_per_entity)
    assert (JVM_RUNTIME.compute.per_entity_ms
            > NATIVE_RUNTIME.compute.per_entity_ms)


def test_node_capacity_sums_accelerators():
    gpu, cpu = make_gpu(), make_cpu_accelerator()
    node = DistributedNode(0, NATIVE_RUNTIME, [gpu, cpu])
    expected = gpu.model.capacity_factor() + cpu.model.capacity_factor()
    assert node.capacity_factor() == pytest.approx(expected)


def test_node_without_accelerators_uses_host():
    node = DistributedNode(0, NATIVE_RUNTIME, [])
    assert node.capacity_factor() == pytest.approx(
        NATIVE_RUNTIME.compute.capacity_factor())


def test_make_cluster_homogeneous():
    c = make_cluster(3, gpus_per_node=2, cpu_accels_per_node=1)
    assert c.num_nodes == 3
    assert c.total_gpu_count() == 6
    for node in c.nodes:
        assert len(node.accelerators) == 3
    # device ids unique across the cluster
    ids = [a.device_id for n in c.nodes for a in n.accelerators]
    assert len(set(ids)) == len(ids)


def test_make_heterogeneous_cluster_fig12a_shape():
    c = make_heterogeneous_cluster([["gpu", "cpu"],
                                    ["gpu", "gpu", "gpu", "cpu"]])
    assert c.num_nodes == 2
    caps = c.capacity_factors()
    assert caps[1] > caps[0]


def test_cluster_validation():
    with pytest.raises(SimulationError):
        make_cluster(0)
    with pytest.raises(SimulationError):
        make_cluster(1, gpus_per_node=-1)
    with pytest.raises(SimulationError):
        make_heterogeneous_cluster([])
    with pytest.raises(SimulationError):
        make_heterogeneous_cluster([["tpu"]])
    with pytest.raises(SimulationError):
        Cluster([])
    with pytest.raises(SimulationError):
        Cluster([DistributedNode(5, NATIVE_RUNTIME, [])])
