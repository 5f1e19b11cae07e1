"""Blocks shape cost, never values.

An edge pass returns ``msg_merge(dst, msg_gen(...))`` over the agent's
triplets — computed once, outside the blocked pipeline.  Everything that
moves block boundaries or block timing (block size, the sync cache and
its capacity, the number of daemons and their shares, a speculated
straggler block, a retried pass) may change ``elapsed_ms`` / ``blocks``
but must leave ``partial`` identical at the bit level.  The sync cache
holds no values at all, so whole runs are equally blind to it.
"""

import numpy as np
import pytest

from repro.accel import make_gpu
from repro.algorithms import LabelPropagation, MultiSourceSSSP, PageRank
from repro.cluster import NATIVE_RUNTIME, DistributedNode, make_cluster
from repro.core import GXPlug
from repro.core.agent import Agent
from repro.core.config import MiddlewareConfig, StragglerConfig
from repro.engines import GraphXEngine, PowerGraphEngine
from repro.fault import HANG, FaultPlan, StragglerDetector
from repro.graph import rmat
from repro.ipc import ShmRegistry

GRAPH = rmat(128, 1024, seed=7)

NO_CACHE = dict(sync_cache=False, lazy_upload=False, sync_skip=False)

#: name -> (accelerator count, MiddlewareConfig kwargs)
VARIANTS = {
    "auto": (1, {}),
    "block-1": (1, dict(block_size=1)),
    "block-64": (1, dict(block_size=64)),
    "no-cache": (1, NO_CACHE),
    "cache-10pct": (1, dict(cache_capacity=GRAPH.num_vertices // 10)),
    "sequential": (1, dict(pipeline=False, block_size=64, **NO_CACHE)),
    "two-daemons": (2, dict(block_size=64)),
}


#: the cache as a shape input: off, thrashing, evicting, all-hit.  Sync
#: skipping needs the cache and regroups iterations into supersteps, so
#: it is held off to leave the cache the only thing that varies.
CACHE_SHAPES = {
    "off": NO_CACHE,
    "capacity-1": dict(cache_capacity=1, sync_skip=False),
    "capacity-10pct": dict(cache_capacity=GRAPH.num_vertices // 10,
                           sync_skip=False),
    "unbounded": dict(sync_skip=False),
}


def make_agent(num_gpus, **config):
    node = DistributedNode(0, NATIVE_RUNTIME,
                           [make_gpu(i) for i in range(num_gpus)])
    agent = Agent(node, ShmRegistry(), MiddlewareConfig(**config))
    agent.connect()
    return agent


def algorithms():
    return [PageRank(), LabelPropagation(),
            MultiSourceSSSP(sources=(0, 1, 2, 3))]


def warmed_values(alg):
    """Vertex values two supersteps in: float sums whose bits depend on
    reduction order (PageRank), coalescing labels (LP), partial
    distances (SSSP)."""
    values = alg.init_state(GRAPH).values
    for _ in range(2):
        merged = alg.msg_merge(GRAPH.dst, alg.msg_gen(
            GRAPH.src, GRAPH.dst, GRAPH.weights, values))
        values, _ = alg.msg_apply(values, merged)
    return values


def edge_pass(agent, alg, values):
    return agent.edge_pass(GRAPH.src, GRAPH.dst, GRAPH.weights, values, alg)


def assert_same_bits(partial, expected, label):
    np.testing.assert_array_equal(partial.ids, expected.ids, err_msg=label)
    # raw bytes: a reordered float sum or a -0.0 for 0.0 would show
    assert partial.data.tobytes() == expected.data.tobytes(), label


@pytest.mark.parametrize("alg", algorithms(), ids=lambda a: a.name)
def test_every_block_layout_returns_the_monolithic_partial(alg):
    values = warmed_values(alg)
    expected = alg.msg_merge(GRAPH.dst, alg.msg_gen(
        GRAPH.src, GRAPH.dst, GRAPH.weights, values))
    results = {}
    for name, (gpus, config) in VARIANTS.items():
        agent = make_agent(gpus, **config)
        cold = edge_pass(agent, alg, values)
        warm = edge_pass(agent, alg, values)    # cache state moved on
        assert_same_bits(cold.partial, expected, f"{name} (cold)")
        assert_same_bits(warm.partial, expected, f"{name} (warm)")
        results[name] = warm
    # ... while the layouts really were different passes
    assert results["block-1"].blocks == GRAPH.num_edges
    assert results["block-64"].blocks == GRAPH.num_edges // 64
    assert results["two-daemons"].blocks == results["block-64"].blocks
    assert len({r.elapsed_ms for r in results.values()}) == len(VARIANTS)
    assert (results["cache-10pct"].cache_misses
            != results["auto"].cache_misses)


@pytest.mark.parametrize("alg", algorithms(), ids=lambda a: a.name)
def test_speculated_straggler_pass_returns_the_same_partial(alg):
    values = warmed_values(alg)
    expected = alg.msg_merge(GRAPH.dst, alg.msg_gen(
        GRAPH.src, GRAPH.dst, GRAPH.weights, values))
    config = dict(block_size=32,
                  straggler=StragglerConfig(enabled=True))
    # three daemons: the detector flags against the cross-daemon median
    healthy = edge_pass(make_agent(3, **config), alg, values)
    agent = make_agent(3, **config)
    agent.daemons[0].arm_slowdown(8.0, passes=3)
    for _ in range(3):
        result = edge_pass(agent, alg, values)
        assert_same_bits(result.partial, expected, "straggler pass")
        assert result.elapsed_ms > healthy.elapsed_ms
    # every pass had a backup adopt the straggler's block and drain the
    # rest of its share
    assert agent.straggler.speculative_wins == 3


def test_adopted_speculation_raises_no_heartbeat_verdict():
    """A stall plan arms the heartbeat monitor (an agent alone never
    fires its events).  The primary a backup overtakes is abandoned
    mid-kernel; it must leave liveness tracking, or the watchdog would
    judge its silence a stall.  The passes keep their bits and time."""
    alg = PageRank()
    values = warmed_values(alg)
    # small blocks: the backup drains the straggler's share for longer
    # than the abandoned kernel's lease plus the heartbeat timeout
    config = dict(block_size=8,
                  straggler=StragglerConfig(enabled=True))
    plain, watched = (make_agent(3, **config),
                      make_agent(3, fault_plan=FaultPlan.single(HANG, 0),
                                 **config))
    for agent in (plain, watched):
        agent.daemons[0].arm_slowdown(8.0, passes=3)
    for _ in range(3):
        ours = edge_pass(watched, alg, values)
        theirs = edge_pass(plain, alg, values)
        assert ours.partial.data.tobytes() == theirs.partial.data.tobytes()
        assert ours.elapsed_ms == theirs.elapsed_ms
    monitor = watched.daemons[0].heartbeat
    assert monitor is not None and monitor.verdicts == 0
    assert watched.heartbeat_verdicts == 0
    assert watched.straggler.speculative_wins == 3


@pytest.mark.parametrize("alg", algorithms(), ids=lambda a: a.name)
def test_a_straggler_no_backup_can_beat_is_not_hedged(alg):
    """A steady straggler slow enough to flag (2.5x over a 2x ratio) but
    quicker than the speculative headroom plus one block: a backup could
    only lose, so none launches, and the pass is the detection-off
    pass, bits and time."""
    values = warmed_values(alg)
    expected = alg.msg_merge(GRAPH.dst, alg.msg_gen(
        GRAPH.src, GRAPH.dst, GRAPH.weights, values))
    plain, flagged = make_agent(3, block_size=32), make_agent(3, block_size=32)
    flagged.set_straggler_detector(StragglerDetector(ratio=2.0))
    for agent in (plain, flagged):
        agent.daemons[0].arm_slowdown(2.5, passes=3)
    for _ in range(3):
        ours = edge_pass(flagged, alg, values)
        assert_same_bits(ours.partial, expected, "flagged straggler")
        assert ours.elapsed_ms == edge_pass(plain, alg, values).elapsed_ms
    det = flagged.straggler
    assert det.is_straggler(flagged.daemons[0].daemon_id)
    assert (det.speculative_wins, det.speculative_losses,
            det.speculative_wasted_ms) == (0, 0, 0.0)


@pytest.mark.parametrize("alg", algorithms(), ids=lambda a: a.name)
def test_lost_speculation_keeps_the_unhedged_pass(alg):
    """A straggler that eases from 8x to 2.5x: its compute EWMA lags the
    change, so blocks are still hedged once the primary is quick enough
    to beat its backup.  Each such copy is charged as a loss, every
    partial keeps the monolithic bits, and a pass with losses only takes
    the unhedged pass's time."""
    values = warmed_values(alg)
    expected = alg.msg_merge(GRAPH.dst, alg.msg_gen(
        GRAPH.src, GRAPH.dst, GRAPH.weights, values))
    hedged = make_agent(4, block_size=64,
                        straggler=StragglerConfig(enabled=True))
    unhedged = make_agent(4, block_size=64)
    det = hedged.straggler
    for factor in (8.0, 2.5):
        for agent in (hedged, unhedged):
            agent.daemons[0].arm_slowdown(factor, passes=2)
        for _ in range(2):
            wins = det.speculative_wins
            ours = edge_pass(hedged, alg, values)
            theirs = edge_pass(unhedged, alg, values)
            assert_same_bits(ours.partial, expected, f"{factor}x pass")
            if det.speculative_wins == wins:
                assert ours.elapsed_ms == theirs.elapsed_ms
    assert det.speculative_wins > 0
    assert det.speculative_losses > 0
    assert det.speculative_wasted_ms > 0.0


@pytest.mark.parametrize("alg", algorithms(), ids=lambda a: a.name)
def test_retried_pass_returns_the_same_partial(alg):
    values = warmed_values(alg)
    config = dict(block_size=64, **NO_CACHE)
    healthy = edge_pass(make_agent(1, **config), alg, values)
    agent = make_agent(1, **config)
    agent.daemons[0].accelerator.inject_failure(after_kernels=3)
    retried = edge_pass(agent, alg, values)
    assert agent.recoveries == 1
    assert_same_bits(retried.partial, healthy.partial, "retried pass")
    assert retried.blocks == healthy.blocks
    assert retried.elapsed_ms > healthy.elapsed_ms


@pytest.mark.parametrize("engine_cls", [PowerGraphEngine, GraphXEngine],
                         ids=["powergraph", "graphx"])
@pytest.mark.parametrize("alg", algorithms(), ids=lambda a: a.name)
def test_the_cache_shapes_cost_never_a_run(alg, engine_cls):
    cluster = make_cluster(2, gpus_per_node=1)
    runs = {}
    for name, config in CACHE_SHAPES.items():
        plug = GXPlug(cluster, MiddlewareConfig(**config))
        engine = engine_cls.build(GRAPH, cluster, middleware=plug)
        runs[name] = engine.run(alg, max_iterations=12)
    expected = runs["unbounded"]
    for name, run in runs.items():
        assert run.values.tobytes() == expected.values.tobytes(), name
        assert run.iterations == expected.iterations, name
    # ... while the four caches really behaved differently
    assert len({run.total_ms for run in runs.values()}) == len(CACHE_SHAPES)
    assert expected.cache_evictions == 0
    assert (runs["capacity-1"].cache_evictions
            > runs["capacity-10pct"].cache_evictions > 0)
