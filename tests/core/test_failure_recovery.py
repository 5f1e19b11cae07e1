"""Failure-injection tests: device faults and daemon-agent recovery."""

import numpy as np
import pytest

from repro.accel import Accelerator, make_gpu
from repro.algorithms import MultiSourceSSSP, PageRank
from repro.cluster import NATIVE_RUNTIME, DistributedNode, make_cluster
from repro.core import GXPlug, MiddlewareConfig
from repro.core.agent import Agent
from repro.engines import PowerGraphEngine
from repro.errors import DeviceError, DeviceFailure
from repro.fault import RetryPolicy
from repro.graph import rmat
from repro.ipc import ShmRegistry


def make_agent():
    node = DistributedNode(0, NATIVE_RUNTIME, [make_gpu()])
    # small fixed blocks so a pass runs many kernels (faults can land
    # mid-pipeline)
    agent = Agent(node, ShmRegistry(), MiddlewareConfig(
        block_size=100, sync_cache=False, lazy_upload=False,
        sync_skip=False))
    agent.connect()
    return agent


@pytest.fixture
def graph():
    return rmat(128, 1024, seed=17)


def test_injected_failure_raises_on_device():
    gpu = make_gpu()
    gpu.init()
    gpu.inject_failure(after_kernels=2)
    gpu.run(lambda: 1, entities=1)
    gpu.run(lambda: 1, entities=1)
    with pytest.raises(DeviceFailure):
        gpu.run(lambda: 1, entities=1)
    # the crash loses the device context
    assert not gpu.initialized
    assert gpu.failure_count == 1
    with pytest.raises(DeviceError):
        gpu.run(lambda: 1, entities=1)


def test_injection_validation():
    with pytest.raises(DeviceError):
        make_gpu().inject_failure(after_kernels=-1)


def test_edge_pass_recovers_from_single_fault(graph):
    alg = MultiSourceSSSP(sources=(0,))
    values = np.zeros((graph.num_vertices, 1))
    healthy = make_agent()
    expected = healthy.edge_pass(graph.src, graph.dst, graph.weights,
                                 values, alg)

    agent = make_agent()
    agent.daemons[0].accelerator.inject_failure(after_kernels=3)
    result = agent.edge_pass(graph.src, graph.dst, graph.weights, values,
                             alg)
    assert agent.recoveries == 1
    assert agent.daemons[0].accelerator.failure_count == 1
    # recovery preserved correctness
    assert sorted(result.partial.ids.tolist()) == \
        sorted(expected.partial.ids.tolist())
    assert np.allclose(np.sort(result.partial.data, axis=0),
                       np.sort(expected.partial.data, axis=0))
    # ... and the lost attempt's time was charged
    assert result.elapsed_ms > expected.elapsed_ms


def test_recovery_gives_up_after_max_attempts(graph):
    alg = MultiSourceSSSP(sources=(0,))
    values = np.zeros((graph.num_vertices, 1))
    agent = make_agent()

    accel = agent.daemons[0].accelerator
    original_init = accel.init

    def faulty_init():
        cost = original_init()
        accel.inject_failure(after_kernels=0)  # re-arm on every re-init
        return cost

    accel.init = faulty_init
    accel.shutdown()
    with pytest.raises(DeviceFailure):
        agent.edge_pass(graph.src, graph.dst, graph.weights, values, alg)
    assert agent.recoveries == RetryPolicy().max_attempts + 1


def test_protocol_reset_clears_state(graph):
    agent = make_agent()
    daemon = agent.daemons[0]
    daemon.areas.n.block = "stale"
    old_channel = daemon.to_daemon
    daemon.reset_protocol()
    assert daemon.areas.n.empty
    assert daemon.to_daemon is not old_channel


def test_engine_run_survives_mid_run_fault(graph):
    """A fault during a full distributed run recovers transparently and
    the results still match the reference."""
    alg_factory = lambda: PageRank()
    expected = alg_factory().reference(graph, iterations=5)

    cluster = make_cluster(2, gpus_per_node=1)
    plug = GXPlug(cluster)
    engine = PowerGraphEngine.build(graph, cluster, middleware=plug)
    # arm a fault that fires somewhere in the middle of the run
    plug.agent_for(0).daemons[0].accelerator.inject_failure(
        after_kernels=5)
    result = engine.run(alg_factory(), max_iterations=5)
    assert np.allclose(result.values, expected)
    assert plug.agent_for(0).recoveries >= 1
