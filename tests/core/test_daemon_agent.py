"""Integration tests for the daemon-agent protocol (Algorithms 1-2).

The two standing invariants:

1. **Correctness** — the pipelined, blocked, multi-daemon edge pass
   produces exactly the same merged messages as a monolithic
   gen+merge over the same triplets.
2. **Timing fidelity** — with a fixed block size, uniform costs and no
   cache, the simulated pipeline's makespan equals the paper's Eq. 1.
"""

import numpy as np
import pytest

from repro.accel import Accelerator, make_cpu_accelerator, make_gpu
from repro.accel.costmodel import DeviceCostModel
from repro.algorithms import MultiSourceSSSP, PageRank
from repro.cluster import NATIVE_RUNTIME, DistributedNode
from repro.core.agent import Agent
from repro.core.config import MiddlewareConfig
from repro.errors import MiddlewareError, ProtocolError
from repro.fault import ALL_KINDS, STALL_KINDS, FaultPlan, HeartbeatMonitor
from repro.graph import rmat
from repro.ipc import ShmRegistry


def make_agent(accels=None, **config_kwargs):
    node = DistributedNode(0, NATIVE_RUNTIME,
                           accels if accels is not None else [make_gpu()])
    config = MiddlewareConfig(**config_kwargs)
    return Agent(node, ShmRegistry(), config)


def no_opt(**kw):
    base = dict(sync_cache=False, lazy_upload=False, sync_skip=False)
    base.update(kw)
    return base


@pytest.fixture
def graph():
    return rmat(128, 1024, seed=7)


def canonical(ms):
    return sorted(
        (int(i),) + tuple(round(float(x), 9) for x in row)
        for i, row in zip(ms.ids, np.atleast_2d(ms.data)))


def direct_partial(alg, g, values):
    msgs = alg.msg_gen(g.src, g.dst, g.weights, values)
    return alg.msg_merge(g.dst, msgs)


def test_edge_pass_matches_direct_computation(graph):
    alg = MultiSourceSSSP(sources=(0, 1, 2, 3))
    values = alg.init_state(graph).values
    values[:, :] = np.random.default_rng(0).uniform(0, 50,
                                                    size=values.shape)
    agent = make_agent(**no_opt())
    agent.connect()
    result = agent.edge_pass(graph.src, graph.dst, graph.weights, values,
                             alg)
    expected = direct_partial(alg, graph, values)
    assert canonical(result.partial) == canonical(expected)
    assert result.entities == graph.num_edges
    assert result.elapsed_ms > 0


def test_edge_pass_multi_daemon_same_result(graph):
    alg = PageRank()
    values = alg.init_state(graph).values
    single = make_agent([make_gpu(0)], **no_opt())
    multi = make_agent([make_gpu(1), make_gpu(2), make_cpu_accelerator(3)],
                       **no_opt())
    single.connect()
    multi.connect()
    r1 = single.edge_pass(graph.src, graph.dst, graph.weights, values, alg)
    r2 = multi.edge_pass(graph.src, graph.dst, graph.weights, values, alg)
    assert canonical(r1.partial) == canonical(r2.partial)
    # three devices working in parallel should be faster
    assert r2.elapsed_ms < r1.elapsed_ms


def test_pipeline_makespan_matches_eq1():
    """With uniform stage times the mechanism realizes Eq. 1 exactly."""
    # distinct dsts so every block's partial has exactly b entries
    d = 120
    src = np.zeros(d, dtype=np.int64)
    dst = np.arange(1, d + 1, dtype=np.int64)
    weights = np.ones(d)
    n = d + 1
    alg = MultiSourceSSSP(sources=(0,))
    values = np.zeros((n, 1))

    model = DeviceCostModel("t", init_ms=0.0, call_ms=2.0,
                            compute_ms_per_entity=0.05,
                            copy_ms_per_entity=0.05, threads=1,
                            memory_bytes=10**9)
    accel = Accelerator(model)
    agent = make_agent([accel], block_size=30, **no_opt())
    agent.connect()
    result = agent.edge_pass(src, dst, weights, values, alg)

    coeffs = agent.coefficients_for(agent.daemons[0])
    expected = coeffs.total_time(d, 4)  # 120 entities / block 30 = 4 blocks
    assert result.blocks == 4
    assert result.elapsed_ms == pytest.approx(expected, rel=1e-9)


def test_sequential_flow_slower_than_pipeline():
    d = 400
    src = np.zeros(d, dtype=np.int64)
    dst = np.arange(1, d + 1, dtype=np.int64)
    weights = np.ones(d)
    alg = MultiSourceSSSP(sources=(0,))
    values = np.zeros((d + 1, 1))

    def run(pipeline):
        agent = make_agent([make_gpu()], pipeline=pipeline, block_size=50,
                           **no_opt())
        agent.connect()
        return agent.edge_pass(src, dst, weights, values, alg)

    with_pipe = run(True)
    without = run(False)
    assert canonical(with_pipe.partial) == canonical(without.partial)
    assert with_pipe.elapsed_ms < without.elapsed_ms


def test_empty_edge_pass_is_free(graph):
    alg = PageRank()
    values = alg.init_state(graph).values
    agent = make_agent(**no_opt())
    agent.connect()
    empty = np.empty(0, dtype=np.int64)
    result = agent.edge_pass(empty, empty, np.empty(0), values, alg)
    assert result.elapsed_ms == 0.0
    assert result.partial.size == 0


@pytest.mark.parametrize("kind", (None,) + ALL_KINDS)
def test_pass_builds_a_monitor_only_for_a_stall_plan(graph, kind):
    """The fault plan decides the watchdog: a pipelined pass builds a
    heartbeat monitor when its plan holds a stall kind (hang, message
    drop), which only a stall can set off; any other plan, or none,
    passes with no monitor and no watchdog."""
    plan = (None if kind is None else FaultPlan.random(
        0, supersteps=1, num_nodes=1, rate=1.0, kinds=(kind,)))
    alg = PageRank()
    agent = make_agent(fault_plan=plan, **no_opt())
    agent.connect()
    agent.edge_pass(graph.src, graph.dst, graph.weights,
                    alg.init_state(graph).values, alg)
    monitor = agent.daemons[0].heartbeat
    if kind in STALL_KINDS:
        assert isinstance(monitor, HeartbeatMonitor)
        assert monitor.beats > 0 and monitor.verdicts == 0
    else:
        assert monitor is None


def malformed_pass(src, dst, weights, **config):
    alg = MultiSourceSSSP(sources=(0,))
    agent = make_agent(**config)
    agent.connect()
    with pytest.raises(MiddlewareError) as caught:
        agent.edge_pass(np.asarray(src), np.asarray(dst),
                        np.asarray(weights, dtype=float), np.zeros((5, 1)),
                        alg)
    return str(caught.value)


def test_edge_pass_refuses_a_negative_destination():
    """numpy would wrap -2 around and merge its message into vertex 3."""
    assert "destination" in malformed_pass([0, 1, 2], [1, -2, 3],
                                           [1, 1, 1])


def test_edge_pass_refuses_a_destination_past_the_values():
    """Vertex 5 of five would come back as a message id and fail in
    apply, a phase later."""
    assert "destination" in malformed_pass([0, 1, 2], [1, 5, 3], [1, 1, 1])


@pytest.mark.parametrize("src, dst, weights", [
    ([0, 1, 2], [1, 2], [1, 1, 1]),
    ([0, 1, 2], [1, 2, 3], [1, 1]),
    ([0, 1], [1, 2, 3], [1, 1, 1]),
])
def test_edge_pass_refuses_triplets_that_do_not_pair_up(src, dst, weights):
    assert "pair up" in malformed_pass(src, dst, weights)


@pytest.mark.parametrize("src", [[-1, 0, 2], [2, -1, 0], [0, 1, 5]])
def test_edge_pass_refuses_a_source_outside_the_values(src):
    """Without a cache nothing else looks at the sources: -1 would read
    the last vertex's value.  Ascending or not, the pass is refused."""
    assert "source" in malformed_pass(src, [1, 2, 3], [1, 1, 1],
                                      **no_opt())


def test_connect_required(graph):
    alg = PageRank()
    values = alg.init_state(graph).values
    agent = make_agent(**no_opt())
    with pytest.raises(ProtocolError):
        agent.edge_pass(graph.src, graph.dst, graph.weights, values, alg)


def test_double_connect_rejected():
    agent = make_agent(**no_opt())
    agent.connect()
    with pytest.raises(ProtocolError):
        agent.connect()


def test_agent_needs_accelerators():
    node = DistributedNode(0, NATIVE_RUNTIME, [])
    with pytest.raises(MiddlewareError):
        Agent(node, ShmRegistry(), MiddlewareConfig())


def test_runtime_isolation_inits_once(graph):
    alg = PageRank()
    values = alg.init_state(graph).values
    agent = make_agent(**no_opt())
    agent.connect()
    for _ in range(5):
        agent.edge_pass(graph.src, graph.dst, graph.weights, values, alg)
    assert agent.daemons[0].accelerator.init_count == 1


def test_no_isolation_reinits_every_pass(graph):
    alg = PageRank()
    values = alg.init_state(graph).values
    agent = make_agent(runtime_isolation=False, **no_opt())
    agent.connect()
    for _ in range(5):
        agent.edge_pass(graph.src, graph.dst, graph.weights, values, alg)
    assert agent.daemons[0].accelerator.init_count == 5


def test_cache_reduces_downloads_on_repeat(graph):
    """Second identical pass over unchanged vertices hits the cache and
    gets cheaper download stages (Fig. 11(a) mechanism)."""
    alg = MultiSourceSSSP(sources=(0,))
    values = np.zeros((graph.num_vertices, 1))
    agent = make_agent(sync_cache=True, lazy_upload=False, sync_skip=False)
    agent.connect()
    r1 = agent.edge_pass(graph.src, graph.dst, graph.weights, values, alg)
    r2 = agent.edge_pass(graph.src, graph.dst, graph.weights, values, alg)
    assert r1.cache_misses > 0
    assert r2.cache_misses == 0
    assert r2.cache_hits == graph.num_edges
    assert r2.breakdown.get("middleware.download", 0.0) < \
        r1.breakdown.get("middleware.download", 0.0)


def test_invalidation_forces_refetch(graph):
    alg = MultiSourceSSSP(sources=(0,))
    values = np.zeros((graph.num_vertices, 1))
    agent = make_agent(sync_cache=True, lazy_upload=False, sync_skip=False)
    agent.connect()
    agent.edge_pass(graph.src, graph.dst, graph.weights, values, alg)
    unique_srcs = np.unique(graph.src)
    agent.invalidate_cache(unique_srcs)
    r = agent.edge_pass(graph.src, graph.dst, graph.weights, values, alg)
    # every distinct source vertex re-fetches (misses count vertex
    # fetches, not triplets); a few extra fetches occur when a vertex's
    # triplets straddle a block boundary
    assert r.cache_misses >= unique_srcs.size


def test_request_apply_matches_direct(graph):
    alg = MultiSourceSSSP(sources=(0,))
    state = alg.init_state(graph)
    values = state.values
    merged = direct_partial(alg, graph, values)
    agent = make_agent(**no_opt())
    agent.connect()
    new_values, changed, cost = agent.request_apply(values, merged, alg)
    exp_values, exp_changed = alg.msg_apply(values, merged)
    assert np.allclose(new_values, exp_values)
    assert changed.tolist() == exp_changed.tolist()
    assert cost > 0


def test_disconnect_releases_devices():
    agent = make_agent(**no_opt())
    agent.connect()
    assert agent.daemons[0].accelerator.initialized
    agent.disconnect()
    assert not agent.daemons[0].accelerator.initialized
    assert not agent.connected


def test_shared_memory_holds_areas():
    agent = make_agent(**no_opt())
    daemon = agent.daemons[0]
    assert "areas" in daemon.segment
    assert daemon.segment.get("areas") is daemon.areas
