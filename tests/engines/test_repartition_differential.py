"""Online Lemma-2 repartition == a run started on the final placement.

A flagged straggler makes the engine re-estimate the per-node Lemma-2
coefficients from observed superstep times and, when the estimated
shares drift, repartition the graph mid-run.  The move is sound only
if it changes *where* vertices are computed, never *what* they end on.
So each run here is checked against its from-scratch twin: a fresh
cluster that starts on the run's final ``engine.pgraph`` from the
checkpoint the run held when it first repartitioned, and never
repartitions itself.  The monotone algorithms must end bit-identical;
PageRank, whose merges regroup with the partition, to ``rtol=1e-12``.

Two placements of the slowness: a slowed daemon on a flat four-node
cluster, and a slowed cross-rack uplink on a ``rack:`` topology, where
the shares are link-adjusted (each node's wire slope, inflated for
flagged uplinks, folds into its coefficient).  A cluster without a
topology is the one-rack topology, so naming it ``flat:4`` must be the
same run.

Values cannot tell a stale ``SkipDetector`` from a fresh one (a skip
drops only the sync's cost), so one more twin repeats every superstep
after the run's last move, field by field, on a clustering placement
whose communities survive the new shares: syncs are still skipped
after the move, and a detector left on the old placement would stop
skipping them.  A last twin repeats the same on ``RACK``, with the
slowed uplink still armed after the move, so a transport that lost its
``LINK_SLOW`` state would price the later syncs wrong.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

from repro import NETWORK_RESILIENT, RESILIENT, GXPlug
from repro.algorithms import ALGORITHMS
from repro.core import StragglerConfig
from repro.core.config import ClusterSpec
from repro.engines import IterationStats, PowerGraphEngine
from repro.fault import LINK_SLOW, SLOWDOWN, CheckpointStore, FaultPlan
from repro.graph import Graph, road_network
from repro.graph.partition import clustering_partition

#: long diameter, so even cc and bfs run past the rebalance cooldown
GRAPH = road_network(20, 20, seed=1)
CAP = 60
MONOTONE = ("cc", "sssp-bf", "bfs")

FLAT = (ClusterSpec(nodes=4, gpus_per_node=1),
        RESILIENT.with_(checkpoint_interval=1, fault_plan=FaultPlan.single(
            SLOWDOWN, 1, node_id=0, daemon_index=0, factor=4.0,
            passes=30)))
RACK = (ClusterSpec(nodes=2, gpus_per_node=1, topology="rack:2x1",
                    ms_per_byte=2e-4),
        NETWORK_RESILIENT.with_(
            checkpoint_interval=1, sync_skip=False, lazy_upload=False,
            straggler=StragglerConfig(enabled=True, reestimate=True),
            fault_plan=FaultPlan.single(LINK_SLOW, 1, node_id=1,
                                        factor=4.0, passes=30)))


def rebalanced_run(spec, config, algorithm_name):
    """(result, final pgraph, the checkpoint held at the first
    repartition) of a run that repartitions online."""
    cluster = spec.build()
    engine = PowerGraphEngine.build(GRAPH, cluster,
                                    middleware=GXPlug(cluster, config))
    first = engine.pgraph
    steps = engine.run_stepwise(ALGORITHMS[algorithm_name](), CAP)
    held = None
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value, engine.pgraph, held
        if held is None and engine.pgraph is not first:
            # the superstep that repartitioned saved its checkpoint
            # before moving: the newest one predates the move
            held = engine.checkpoint_store.peek()


def run_on(spec, config, pgraph, algorithm_name, resume_from):
    """The twin: a fresh cluster on ``pgraph`` with no straggler tier,
    so it never repartitions."""
    cluster = spec.build()
    quiet = config.with_(fault_plan=None, straggler=StragglerConfig())
    engine = PowerGraphEngine(pgraph, cluster, GXPlug(cluster, quiet))
    return engine.run(ALGORITHMS[algorithm_name](), max_iterations=CAP,
                      resume_from=resume_from)


@pytest.mark.parametrize("algorithm_name", MONOTONE + ("pagerank",))
@pytest.mark.parametrize("placement", [FLAT, RACK], ids=["flat", "rack"])
def test_online_repartition_ends_where_the_final_placement_does(
        placement, algorithm_name):
    spec, config = placement
    live, final, held = rebalanced_run(spec, config, algorithm_name)
    assert live.online_rebalances >= 1
    assert held is not None and final.parts
    twin = run_on(spec, config, final, algorithm_name, held)
    assert twin.online_rebalances == 0
    assert twin.converged == live.converged
    if algorithm_name in MONOTONE:
        assert twin.values.tobytes() == live.values.tobytes()
    else:
        np.testing.assert_allclose(twin.values, live.values,
                                   rtol=1e-12, atol=0)


def test_per_superstep_waste_sums_to_the_run_total():
    """The repartition collective crosses the slowed uplink too: its
    retransmit waste belongs to the superstep that moved, so no waste
    falls between supersteps and the per-superstep counts add up to the
    transport's total."""
    spec, config = RACK
    live, _, _ = rebalanced_run(spec, config, "pagerank")
    assert live.online_rebalances >= 1 and live.net_wasted_ms > 0
    assert math.fsum(s.net_wasted_ms for s in live.stats) == pytest.approx(
        live.net_wasted_ms, rel=1e-12, abs=0)


def test_flat_topology_is_the_same_run_as_no_topology():
    """``topology=None`` builds the one-rack topology, whose uplinks
    are uniform: spelling it ``flat:4`` turns on no link-aware share,
    so a re-estimating straggler run ends on the same value bytes,
    total and per-superstep stats either way."""
    spec, config = FLAT
    runs = []
    for topology in (None, "flat:4"):
        cluster = ClusterSpec(nodes=4, gpus_per_node=1,
                              topology=topology).build()
        engine = PowerGraphEngine.build(GRAPH, cluster,
                                        middleware=GXPlug(cluster, config))
        runs.append(engine.run(ALGORITHMS["pagerank"](), max_iterations=20))
    none, flat = runs
    assert spec.topology is None and none.online_rebalances >= 1
    assert flat.values.tobytes() == none.values.tobytes()
    assert repr(flat.total_ms) == repr(none.total_ms)
    assert [repr(s) for s in flat.stats] == [repr(s) for s in none.stats]


def vertex_pairs(count):
    """``count`` communities of two vertices: ``2i <-> 2i+1`` plus a
    self-loop on ``2i``, so PageRank runs ~30 supersteps and a pair
    split across nodes costs a sync in every one of them."""
    src = [v for i in range(count) for v in (2 * i, 2 * i + 1, 2 * i)]
    dst = [v for i in range(count) for v in (2 * i + 1, 2 * i, 2 * i)]
    return Graph.from_edges(2 * count, src, dst)


def repeats_after_last_move(engine, spec, config, capture, carry):
    """Run PageRank on ``engine`` out, holding the checkpoint and
    ``capture(engine)`` at each move; then start the twin on the final
    placement from the last one, with ``carry(plug, captured)`` applied
    to its fresh middleware, and require it to repeat every later
    superstep's stats, field by field.  Returns those supersteps."""
    steps = engine.run_stepwise(ALGORITHMS["pagerank"](), CAP)
    placement, held, captured = engine.pgraph, None, None
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            live = stop.value
            break
        if engine.pgraph is not placement:
            placement = engine.pgraph
            held = engine.checkpoint_store.peek()
            captured = capture(engine)
    assert live.online_rebalances >= 1 and held is not None
    after = live.stats[held.iteration:]

    cluster = spec.build()
    plug = GXPlug(cluster, config.with_(fault_plan=None,
                                        straggler=StragglerConfig()))
    carry(plug, captured)
    twin = PowerGraphEngine(placement, cluster, plug).run(
        ALGORITHMS["pagerank"](), max_iterations=CAP, resume_from=held)
    assert twin.online_rebalances == 0
    assert twin.values.tobytes() == live.values.tobytes()
    assert len(twin.stats) == len(after)
    for ours, theirs in zip(after, twin.stats):
        for f in dataclasses.fields(IterationStats):
            assert getattr(theirs, f.name) == getattr(ours, f.name), \
                f"superstep {ours.index}: {f.name}"
    return after


def test_online_repartition_repeats_every_superstep_after_the_move():
    """The twin starts on the final placement from the checkpoint held
    at the run's *last* move, with the slowed daemon's remaining passes
    carried over, and must repeat every later superstep's stats."""
    spec, config = ClusterSpec(nodes=3, gpus_per_node=1), FLAT[1]
    cluster = spec.build()
    engine = PowerGraphEngine(clustering_partition(vertex_pairs(120), 3),
                              cluster, GXPlug(cluster, config))

    def capture(engine):
        daemon = engine.middleware.agent_for(0).daemons[0]
        return (daemon.slow_factor, daemon.slow_passes_left,
                daemon.slow_passes_done)

    def carry(plug, slow):
        daemon = plug.agent_for(0).daemons[0]
        daemon.arm_slowdown(slow[0], slow[1])
        daemon.slow_passes_done = slow[2]

    after = repeats_after_last_move(engine, spec, config, capture, carry)
    assert any(s.skipped for s in after)


def test_link_adjusted_repartition_repeats_every_superstep_after_the_move(
        monkeypatch):
    """The same repeat on ``RACK``: link-adjusted shares move the graph
    off the slowed cross-rack uplink, and the twin carries over the
    armed ``LINK_SLOW`` state (factor, passes left, flaky flag, tick).
    A superstep's ``checkpoint_ms`` depends on the delta chain behind
    it, so the twin also starts from the live checkpoint store."""
    spec, config = RACK
    cluster = spec.build()
    engine = PowerGraphEngine.build(GRAPH, cluster,
                                    middleware=GXPlug(cluster, config))

    def capture(engine):
        transport = engine.middleware.transport
        return (list(transport._slow_links[1]),
                copy.deepcopy(engine.checkpoint_store))

    def carry(plug, captured):
        (factor, passes_left, flaky, tick), store = captured
        plug.transport.arm_link_slow(1, factor, passes_left)
        plug.transport._slow_links[1][2:] = [flaky, tick]
        # the resume point is the live store's newest state: continue
        # its delta chain instead of seeding a fresh one
        monkeypatch.setattr(
            CheckpointStore, "seed",
            lambda self, *state: vars(self).update(vars(store)))

    after = repeats_after_last_move(engine, spec, config, capture, carry)
    assert any(s.net_wasted_ms > 0 for s in after)  # still slowed
