"""Network-layer fault tolerance: resilient collectives end to end.

The acceptance bar mirrors the daemon-edge one: every network fault
kind, injected under deterministic seeds, must leave PageRank and SSSP
converging to the fault-free results (within 1e-9), with the transport's
recovery visible in the counters — and the fault-free path, which every
middleware runs through the transport, must cost exactly zero extra.
"""

import dataclasses

import numpy as np
import pytest

from repro import (
    FULL,
    NETWORK_RESILIENT,
    RESILIENT,
    GXPlug,
    MultiSourceSSSP,
    PageRank,
    PowerGraphEngine,
    ResilientTransport,
    load_dataset,
    make_cluster,
)
from repro.cluster import Topology
from repro.core import StragglerConfig
from repro.core.balance import rebalanced_shares
from repro.core.config import ClusterSpec
from repro.engines import IterationStats
from repro.errors import NetworkFault, NodeUnreachable, SimulationError
from repro.fault import (
    NET_DELAY,
    NET_DROP,
    NET_DUP,
    NETWORK_KINDS,
    NODE_PARTITION,
    SYNC_FAIL,
    CheckpointStore,
    FaultPlan,
    RetryPolicy,
)

NUM_NODES = 2
MAX_ITER = 10


@pytest.fixture(scope="module")
def graph():
    return load_dataset("wrn")


def run_algorithm(graph, config, algorithm=None, cluster=None):
    if cluster is None:
        cluster = make_cluster(NUM_NODES, gpus_per_node=1)
    plug = GXPlug(cluster, config)
    engine = PowerGraphEngine.build(graph, cluster, middleware=plug)
    algorithm = algorithm if algorithm is not None else PageRank()
    result = engine.run(algorithm, max_iterations=MAX_ITER)
    return result, plug


@pytest.fixture(scope="module")
def fault_free(graph):
    result, _ = run_algorithm(graph, FULL)
    return result


@pytest.fixture(scope="module")
def fault_free_sssp(graph):
    result, _ = run_algorithm(graph, FULL,
                              algorithm=MultiSourceSSSP(sources=(0, 1)))
    return result


# -- transport unit behaviour ----------------------------------------------


def one_rack(num_nodes=4):
    """The uniform interconnect a cluster built without a topology gets."""
    return Topology([range(num_nodes)])


def make_transport(num_nodes=4, **kw):
    policy = RetryPolicy(max_attempts=kw.pop("max_attempts", 3),
                         base_delay_ms=kw.pop("base_delay_ms", 0.5),
                         backoff_factor=kw.pop("backoff_factor", 2.0))
    return ResilientTransport(one_rack(num_nodes), policy,
                              ack_timeout_ms=kw.pop("ack_timeout_ms", 1.0))


def test_fault_free_transport_is_bit_exact():
    for nodes, nbytes in [(1, 0), (2, 64), (4, 4096), (16, 10_000)]:
        model = one_rack(nodes)
        t = make_transport(nodes)
        assert t.sync_ms(nodes, nbytes) == model.sync_ms(nodes, nbytes)
        assert t.broadcast_ms(nodes, nbytes) == \
            model.broadcast_ms(nodes, nbytes)
        assert t.net_wasted_ms == 0.0
        assert t.retransmits == 0 and t.dup_drops == 0


def test_transport_refuses_bad_peers_and_timeouts():
    """A resend from a node the topology does not know has no uplink to
    price: the collective it is armed on refuses it."""
    with pytest.raises(SimulationError):
        ResilientTransport(one_rack(), ack_timeout_ms=0.0)
    for node in (-1, 4):
        t = make_transport()
        t.arm_drop(node)
        with pytest.raises(SimulationError, match="unknown node"):
            t.sync_ms(4, 1000)


def test_slow_link_outside_the_collective_stays_armed():
    """A gray fault on a node the collective does not span is neither
    charged nor spent."""
    t = make_transport(num_nodes=2)
    t.arm_link_slow(5, factor=4.0, passes=1)
    assert t.sync_ms(2, 1000) == one_rack(2).sync_ms(2, 1000)
    assert t.link_inflations == 0 and 5 in t._slow_links


def test_armed_delay_charges_the_straggler():
    model = one_rack()
    t = make_transport()
    t.arm_delay(1, 7.5)
    cost = t.sync_ms(4, 1000)
    assert cost == pytest.approx(model.sync_ms(4, 1000) + 7.5)
    assert t.net_wasted_ms == pytest.approx(7.5)
    # one-shot: the next collective is clean again
    assert t.sync_ms(4, 1000) == model.sync_ms(4, 1000)


def test_armed_dup_pays_the_wire_and_gets_deduped():
    model = one_rack()
    t = make_transport()
    t.arm_dup(0)
    cost = t.sync_ms(4, 1000)
    fragment = 250
    assert cost == pytest.approx(model.sync_ms(4, 1000)
                                 + model.fragment_ms(0, fragment))
    assert t.dup_drops == 1
    assert t.retransmits == 0                    # a dup is not a resend


def test_armed_drop_retransmits_after_timeout_and_backoff():
    model = one_rack()
    t = make_transport(ack_timeout_ms=2.0, base_delay_ms=0.5)
    t.arm_drop(1)
    cost = t.sync_ms(4, 1000)
    expected_extra = 2.0 + 0.5 + model.fragment_ms(1, 250)
    assert cost == pytest.approx(model.sync_ms(4, 1000) + expected_extra)
    assert t.retransmits == 1
    assert t.partition_verdicts == 0             # the resend landed
    assert t.sync_ms(4, 1000) == model.sync_ms(4, 1000)


def test_a_retransmission_crosses_the_senders_uplink():
    """On ``rack:2x1`` node 1 sits behind the cross-rack uplink: its
    resent fragment pays that path, not the in-rack default link."""
    topo = Topology.from_spec("rack:2x1")
    t = ResilientTransport(topo, RetryPolicy(max_attempts=3,
                                             base_delay_ms=0.5),
                           ack_timeout_ms=1.0)
    t.arm_drop(1)
    extra = t.sync_ms(2, 10_000) - topo.sync_ms(2, 10_000)
    assert topo.fragment_ms(1, 5000) == pytest.approx(0.65)
    assert extra == pytest.approx(1.0 + 0.5 + 0.65)
    assert t.net_wasted_ms == pytest.approx(2.15)


def test_armed_sync_fail_falls_back_to_p2p():
    model = one_rack()
    t = make_transport()
    t.arm_sync_fail()
    cost = t.sync_ms(4, 1000)
    assert cost == pytest.approx(model.sync_ms(4, 1000)
                                 + model.p2p_fallback_ms(4, 1000))
    assert t.collective_fallbacks == 1
    assert t.retransmits == 4                    # one resend per node


def test_partition_exhausts_budget_and_raises():
    t = make_transport(max_attempts=3)
    t.arm_partition(2)
    with pytest.raises(NodeUnreachable) as err:
        t.sync_ms(4, 1000)
    assert isinstance(err.value, NetworkFault)
    assert err.value.node_id == 2
    assert err.value.wasted_ms > 0
    assert t.net_wasted_ms == err.value.wasted_ms
    assert t.retransmits == 3                    # the whole budget
    assert t.partition_verdicts == 1
    # the verdict consumed the armed fault; the transport is clean again
    assert t.faults_armed == 0
    assert t.sync_ms(4, 1000) == one_rack().sync_ms(4, 1000)


# -- end-to-end: every kind converges to fault-free results ---------------


@pytest.mark.parametrize("kind,kwargs", [
    (NET_DROP, dict(node_id=1)),
    (NET_DELAY, dict(node_id=0, duration_ms=5.0)),
    (NET_DUP, dict(node_id=1)),
    (SYNC_FAIL, dict()),
])
@pytest.mark.parametrize("superstep", [0, 3])
def test_recoverable_network_fault_converges(graph, fault_free, kind,
                                             kwargs, superstep):
    plan = FaultPlan.single(kind, superstep, **kwargs)
    result, plug = run_algorithm(
        graph, NETWORK_RESILIENT.with_(fault_plan=plan))
    assert result.converged == fault_free.converged
    assert np.abs(result.values - fault_free.values).max() < 1e-9
    report = plug.fault_report(result)
    assert report.faults_injected == 1
    assert report.injected_by_kind == {kind: 1}
    assert report.net_wasted_ms > 0
    assert result.net_wasted_ms == pytest.approx(report.net_wasted_ms)
    if kind == NET_DROP:
        assert report.retransmits >= 1
    if kind == NET_DUP:
        assert report.dup_drops >= 1
    if kind == SYNC_FAIL:
        assert report.collective_fallbacks >= 1
    assert result.rollbacks == 0
    assert not report.degraded_nodes


@pytest.mark.parametrize("kind,kwargs", [
    (NET_DROP, dict(node_id=0)),
    (NET_DELAY, dict(node_id=1, duration_ms=5.0)),
    (SYNC_FAIL, dict()),
])
def test_network_faults_keep_sssp_exact(graph, fault_free_sssp, kind,
                                        kwargs):
    plan = FaultPlan.single(kind, 1, **kwargs)
    result, _ = run_algorithm(
        graph, NETWORK_RESILIENT.with_(fault_plan=plan),
        algorithm=MultiSourceSSSP(sources=(0, 1)))
    np.testing.assert_allclose(result.values, fault_free_sssp.values,
                               atol=1e-9)


def test_network_faults_slow_the_run_but_keep_it_correct(graph,
                                                         fault_free):
    plan = FaultPlan.single(NET_DROP, 2, node_id=1)
    clean, _ = run_algorithm(graph, NETWORK_RESILIENT)
    faulted, _ = run_algorithm(
        graph, NETWORK_RESILIENT.with_(fault_plan=plan))
    assert faulted.total_ms > clean.total_ms
    hit = [s for s in faulted.stats if s.retransmits]
    assert hit and all(s.net_wasted_ms > 0 for s in hit)


def test_node_partition_rolls_back_degrades_and_rebalances(graph,
                                                           fault_free):
    plan = FaultPlan.single(NODE_PARTITION, 3, node_id=1)
    result, plug = run_algorithm(
        graph, NETWORK_RESILIENT.with_(fault_plan=plan))
    assert np.abs(result.values - fault_free.values).max() < 1e-9
    assert result.rollbacks == 1
    assert result.degraded_nodes == [1]
    assert result.rebalance_events == 1
    assert result.rebalance_ms > 0
    assert result.wasted_ms > 0
    # stats stay contiguous after the rollback truncation
    assert [s.index for s in result.stats] == list(range(result.iterations))
    report = plug.fault_report(result)
    assert report.partition_verdicts == 1
    assert report.rebalance_events == 1
    assert not report.clean
    assert "rebalance" in report.summary()


def test_partition_without_degrade_reraises(graph):
    plan = FaultPlan.single(NODE_PARTITION, 1, node_id=0)
    config = NETWORK_RESILIENT.with_(fault_plan=plan,
                                     degrade_to_host=False,
                                     rebalance_on_degrade=False)
    cluster = make_cluster(NUM_NODES, gpus_per_node=1)
    plug = GXPlug(cluster, config)
    engine = PowerGraphEngine.build(graph, cluster, middleware=plug)
    with pytest.raises(NodeUnreachable):
        engine.run(PageRank(), max_iterations=MAX_ITER)
    assert not plug.agent_for(0).degraded


def test_seeded_network_campaign_is_reproducible(graph):
    plan = FaultPlan.random(23, supersteps=MAX_ITER, num_nodes=NUM_NODES,
                            rate=0.3, kinds=NETWORK_KINDS)
    assert plan.events, "seed 23 must schedule at least one event"
    assert all(e.daemon_index == 0 for e in plan.events)
    config = NETWORK_RESILIENT.with_(fault_plan=plan)
    first, _ = run_algorithm(graph, config)
    second, _ = run_algorithm(graph, config)
    assert first.total_ms == second.total_ms          # bit-for-bit timing
    np.testing.assert_array_equal(first.values, second.values)


def test_network_plan_arms_on_any_config(graph, fault_free):
    """Every middleware syncs through the transport, so a network fault
    arms on the plain FULL config too."""
    plan = FaultPlan.single(NET_DROP, 0, node_id=1)
    result, plug = run_algorithm(graph, FULL.with_(fault_plan=plan))
    assert np.abs(result.values - fault_free.values).max() < 1e-9
    assert result.retransmits == 1
    assert result.total_ms > fault_free.total_ms
    assert plug.fault_report(result).injected_by_kind == {NET_DROP: 1}


def test_fault_free_link_observation_costs_nothing_extra(graph):
    """The transport's zero-overhead invariant, engine-level: on
    ``rack:2x1`` the uplinks differ, so with the straggler detector on
    the transport reports every uplink of every collective to it.  A
    fault-free RESILIENT run must still repeat the detector-off run's
    values, cost and every superstep's stats, and flag no link."""
    def run(config):
        cluster = ClusterSpec(nodes=NUM_NODES, gpus_per_node=1,
                              topology="rack:2x1").build()
        return run_algorithm(graph, config, cluster=cluster)

    plain, _ = run(RESILIENT.with_(straggler=StragglerConfig()))
    observed, plug = run(RESILIENT)
    assert plug.straggler.link_observations > 0
    assert observed.link_verdicts == 0
    np.testing.assert_array_equal(observed.values, plain.values)
    assert observed.total_ms == plain.total_ms
    assert len(observed.stats) == len(plain.stats)
    for ours, theirs in zip(observed.stats, plain.stats):
        for f in dataclasses.fields(IterationStats):
            assert getattr(ours, f.name) == getattr(theirs, f.name), \
                f"superstep {ours.index}: {f.name}"
    assert observed.retransmits == 0
    assert observed.net_wasted_ms == 0.0
    assert plug.fault_report(observed).clean


def test_rebalanced_shares_shift_load_off_degraded_nodes():
    cluster = make_cluster(4, gpus_per_node=1)
    healthy = rebalanced_shares(cluster.nodes, [])
    degraded = rebalanced_shares(cluster.nodes, [2])
    assert healthy == pytest.approx([0.25] * 4)
    assert degraded[2] < 0.25                     # lost its accelerator
    assert degraded.sum() == pytest.approx(1.0)
    assert degraded[0] == degraded[1] == degraded[3]


# -- incremental (delta) checkpoints ---------------------------------------


def seeded_states(n=64, width=1, steps=6, seed=7):
    """A deterministic sequence of (values, active, changed) updates."""
    rng = np.random.default_rng(seed)
    values = rng.random((n, width)) if width > 1 else rng.random(n)
    active = rng.random(n) < 0.5
    out = []
    for _ in range(steps):
        changed = np.unique(rng.integers(0, n, size=5))
        values = values.copy()
        values[changed] += 1.0
        active = active.copy()
        flips = np.unique(rng.integers(0, n, size=3))
        active[flips] = ~active[flips]
        out.append((values, active, changed))
    return out


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("prefix", [1, 3, 6])
def test_delta_restore_matches_full_restore_bit_for_bit(width, prefix):
    delta_store = CheckpointStore(interval=1, full_every=8)
    full_store = CheckpointStore(interval=1)
    states = seeded_states(width=width)[:prefix]
    for i, (values, active, changed) in enumerate(states):
        delta_store.save(i, values, active, changed=changed)
        full_store.save(i, values, active)
    assert delta_store.delta_saves == prefix - 1  # first save is full
    assert full_store.delta_saves == 0
    d, f = delta_store.restore(), full_store.restore()
    assert d.iteration == f.iteration == prefix - 1
    np.testing.assert_array_equal(d.values, f.values)
    np.testing.assert_array_equal(d.active, f.active)


def test_delta_checkpoints_charge_only_cells_written():
    store = CheckpointStore(interval=1, ms_per_cell=1.0, fixed_ms=0.0)
    n = 100
    values = np.zeros(n)
    active = np.ones(n, dtype=bool)
    assert store.save(0, values, active, changed=np.arange(n)) == n
    values = values.copy()
    values[:4] = 1.0
    cost = store.save(1, values, active, changed=np.arange(4))
    assert cost == 4.0                            # 4 cells, not 100


def test_full_every_bounds_the_delta_chain():
    store = CheckpointStore(interval=1, full_every=2)
    n = 16
    values, active = np.zeros(n), np.ones(n, dtype=bool)
    for i in range(6):
        values = values.copy()
        values[i] = float(i + 1)
        store.save(i, values, active, changed=np.array([i]))
    # saves: full, delta, delta, full, delta, delta
    assert store.saves == 6
    assert store.delta_saves == 4
    assert store.saves - store.delta_saves == 2
    restored = store.restore()
    np.testing.assert_array_equal(restored.values, values)


def test_restore_after_rollback_forces_full_snapshot():
    store = CheckpointStore(interval=1)
    n = 8
    values, active = np.zeros(n), np.ones(n, dtype=bool)
    store.save(0, values, active, changed=np.arange(n))
    values = values.copy()
    values[0] = 1.0
    store.save(1, values, active, changed=np.array([0]))
    assert store.delta_saves == 1
    store.restore()
    store.save(2, values, active, changed=np.array([0]))
    assert store.delta_saves == 1                 # forced full, not delta
    assert store.latest.iteration == 2


def test_changed_none_keeps_the_full_snapshot_api():
    store = CheckpointStore(interval=2)
    n = 8
    values, active = np.zeros(n), np.ones(n, dtype=bool)
    for i in (2, 4, 6):
        store.save(i, values, active)
    assert store.delta_saves == 0
    assert store.latest.iteration == store.latest_iteration == 6


def test_frontier_runs_actually_take_delta_checkpoints(graph,
                                                       fault_free_sssp):
    """SSSP's sparse frontiers are where incremental checkpoints pay:
    the checkpointed run must cost less than one paying full snapshots
    at every boundary, while restoring identically under a fault."""
    n = graph.num_vertices
    full = CheckpointStore(interval=1)
    delta = CheckpointStore(interval=1)
    rng = np.random.default_rng(3)
    values = rng.random(n)
    active = np.ones(n, dtype=bool)
    full_cost = full.save(1, values, active)
    sparse = np.unique(rng.integers(0, n, size=max(2, n // 50)))
    delta.save(0, values, active, changed=np.arange(n))
    values = values.copy()
    values[sparse] += 1.0
    delta_cost = delta.save(1, values, active, changed=sparse)
    assert delta_cost < full_cost
