"""Tests for the GXPlug facade and the agent operation interfaces."""

import numpy as np
import pytest

from repro.accel import make_gpu
from repro.algorithms import PageRank
from repro.cluster import DistributedNode, NATIVE_RUNTIME, Cluster, make_cluster
from repro.core import FULL, GXPlug, MiddlewareConfig
from repro.core.agent import Agent
from repro.errors import MiddlewareError, ProtocolError
from repro.graph import rmat
from repro.ipc import ShmRegistry


def test_gxplug_creates_one_agent_per_node():
    cluster = make_cluster(3, gpus_per_node=2)
    plug = GXPlug(cluster)
    assert len(plug.agents) == 3
    for node in cluster.nodes:
        agent = plug.agent_for(node.node_id)
        assert len(agent.daemons) == 2


def test_gxplug_rejects_accelerator_free_cluster():
    with pytest.raises(MiddlewareError):
        GXPlug(make_cluster(2))


def test_gxplug_rejects_partially_equipped_cluster():
    nodes = [DistributedNode(0, NATIVE_RUNTIME, [make_gpu(0)]),
             DistributedNode(1, NATIVE_RUNTIME, [])]
    with pytest.raises(MiddlewareError):
        GXPlug(Cluster(nodes))


def test_connect_all_pays_slowest_node_once():
    cluster = make_cluster(4, gpus_per_node=1)
    plug = GXPlug(cluster)
    cost = plug.connect_all()
    # parallel init: one V100 init, not four
    assert cost == pytest.approx(make_gpu().model.init_ms)
    assert plug.connected
    with pytest.raises(MiddlewareError):
        plug.connect_all()


def test_disconnect_all_idempotent():
    cluster = make_cluster(2, gpus_per_node=1)
    plug = GXPlug(cluster)
    plug.connect_all()
    plug.disconnect_all()
    assert not plug.connected
    plug.disconnect_all()  # no-op


def test_agent_for_unknown_node():
    plug = GXPlug(make_cluster(2, gpus_per_node=1))
    with pytest.raises(MiddlewareError):
        plug.agent_for(99)


def test_total_middleware_ms_accumulates():
    g = rmat(64, 256, seed=1)
    cluster = make_cluster(2, gpus_per_node=1)
    plug = GXPlug(cluster)
    plug.connect_all()
    alg = PageRank()
    values = alg.init_state(g).values
    agent = plug.agent_for(0)
    before = agent.total_middleware_ms
    agent.edge_pass(g.src, g.dst, g.weights, values, alg)
    assert agent.total_middleware_ms > before


# -- the paper's operation interfaces (§IV-A2) ----------------------------------


@pytest.fixture
def connected_agent():
    node = DistributedNode(0, NATIVE_RUNTIME, [make_gpu()])
    agent = Agent(node, ShmRegistry(), FULL)
    agent.connect()
    return agent


def test_update_download_warms_cache(connected_agent):
    alg = PageRank()
    g = rmat(32, 128, seed=3)
    values = alg.init_state(g).values
    ids = np.arange(10)
    cost = connected_agent.update(ids, values, alg, direction="download")
    assert cost == pytest.approx(
        10 * NATIVE_RUNTIME.download_ms_per_entity)
    for v in range(10):
        assert v in connected_agent.cache


def test_update_upload_flushes_dirty(connected_agent):
    alg = PageRank()
    g = rmat(32, 128, seed=3)
    values = alg.init_state(g).values
    connected_agent.note_master_updates(np.array([1, 2]))
    assert connected_agent.cache.dirty_count == 2
    cost = connected_agent.update(np.array([1, 2]), values, alg,
                                  direction="upload")
    assert cost == pytest.approx(2 * NATIVE_RUNTIME.upload_ms_per_entity)
    assert connected_agent.cache.dirty_count == 0


def test_update_records_residency_not_values(connected_agent):
    """update() keeps §IV-A2's signature but copies nothing out of
    ``values``: its cost and the cache's resident/dirty sets are what
    the row-holding agent of commit 63802eb produced."""
    alg = PageRank()
    values = alg.init_state(rmat(32, 128, seed=3)).values
    cache = connected_agent.cache
    down = connected_agent.update(np.arange(10), values, alg,
                                  direction="download")
    connected_agent.note_master_updates(np.array([1, 2, 20]))
    up = connected_agent.update(np.array([2, 20, 5]), values, alg,
                                direction="upload")
    assert down == 10 * NATIVE_RUNTIME.download_ms_per_entity
    assert up == 3 * NATIVE_RUNTIME.upload_ms_per_entity
    assert sorted(v for v in range(32) if v in cache) == [*range(10), 20]
    assert cache.dirty_ids() == [1]


def test_update_validates_direction(connected_agent):
    alg = PageRank()
    with pytest.raises(ProtocolError):
        connected_agent.update(np.array([1]), np.ones((5, 1)), alg,
                               direction="sideways")


def test_update_requires_connection():
    node = DistributedNode(0, NATIVE_RUNTIME, [make_gpu()])
    agent = Agent(node, ShmRegistry(), FULL)
    with pytest.raises(ProtocolError):
        agent.update(np.array([1]), np.ones((5, 1)), PageRank())


def test_transfer_places_data_in_daemon_shm(connected_agent):
    payload = {"weights": [1, 2, 3]}
    connected_agent.transfer(0, "scratch", payload, nbytes=24)
    daemon = connected_agent.daemons[0]
    assert daemon.segment.get("scratch") is payload  # zero copy
    assert daemon.segment.bytes_written >= 24


def test_transfer_bad_daemon_index(connected_agent):
    with pytest.raises(ProtocolError):
        connected_agent.transfer(5, "x", 1)


def test_paper_call_sequence_end_to_end():
    """connect -> update -> requestX (edge_pass, request_apply) -> update
    -> disconnect."""
    g = rmat(64, 512, seed=9)
    alg = PageRank()
    values = alg.init_state(g).values
    node = DistributedNode(0, NATIVE_RUNTIME, [make_gpu()])
    agent = Agent(node, ShmRegistry(), FULL)

    agent.connect()
    agent.update(np.arange(g.num_vertices), values, alg,
                 direction="download")
    gen = agent.edge_pass(g.src, g.dst, g.weights, values, alg)
    new_values, changed, _ = agent.request_apply(values, gen.partial, alg)
    agent.update(changed, new_values, alg, direction="upload")
    agent.disconnect()

    expected, _ = alg.msg_apply(values, alg.msg_merge(
        g.dst, alg.msg_gen(g.src, g.dst, g.weights, values)))
    assert np.allclose(new_values, expected)
