"""Degraded rebalance == a run started on the final placement.

With ``degrade_to_host`` a node whose accelerators exhaust their retry
budget falls back to its host path: the engine rolls back to its newest
checkpoint and, with ``rebalance_on_degrade``, repartitions the graph
around the written-off accelerators (Lemma 2 on the new coefficients).
The move is sound only if it changes where and how fast vertices are
computed, never what they end on.  So each run here is checked against
its from-scratch twin: a fresh cluster with the same nodes degraded
that starts on the run's final ``engine.pgraph`` from the checkpoint
the run held when it rebalanced, and never rebalances itself.

Values must end bit-identical, PageRank's included: after the rollback
the run and its twin merge on the same placement.  Values cannot tell a
stale agent cache or a stale ``SkipDetector`` from a fresh one: the
cache tracks residency, not rows, and a skipped synchronization only
drops the sync's cost, so both decide simulated time, never values.  So
the twin must also repeat every superstep the run computed after the
rollback, field by field (cache hits and misses, skips, sync and
compute ms), except the checkpoint charge: the twin's store starts a
fresh delta chain.

What that catches: dropping both agent-cache flushes (the rollback's
and the repartition's; each covers for the other on this path) fails
every case on the cache counts.  A stale ``SkipDetector`` cannot show
here: a monotone run starts in the combined order and carries no strict
detector into the supersteps after a degradation (nor does a fresh run
with a degraded node), and a Lemma-2 rebalance off a degraded node
splits the locality-preserving placement skipping needs, so after it
neither a fresh nor a stale detector skips.
"""

import dataclasses

import pytest

from repro import RESILIENT, GXPlug
from repro.algorithms import ALGORITHMS
from repro.core import StragglerConfig
from repro.core.config import ClusterSpec
from repro.engines import IterationStats, PowerGraphEngine
from repro.fault import CRASH, FaultPlan
from repro.graph import road_network

#: long diameter, so every algorithm runs well past the degradation
GRAPH = road_network(20, 20, seed=1)
CAP = 60
SPEC = ClusterSpec(nodes=4, gpus_per_node=1)
#: no straggler tier: the degradation is the only repartition trigger
CONFIG = RESILIENT.with_(checkpoint_interval=1, rebalance_on_degrade=True,
                         straggler=StragglerConfig())
#: a crash that outlives the retry budget, at (superstep, node)
CRASHES = [(3, 0), (5, 2)]
STATS = [f.name for f in dataclasses.fields(IterationStats)
         if f.name != "checkpoint_ms"]


def degraded_run(algorithm_name, superstep, node_id):
    """(result, final pgraph, the checkpoint held at the rebalance)."""
    cluster = SPEC.build()
    plan = FaultPlan.single(CRASH, superstep, node_id=node_id, repeat=10)
    engine = PowerGraphEngine.build(
        GRAPH, cluster, middleware=GXPlug(cluster,
                                          CONFIG.with_(fault_plan=plan)))
    first = engine.pgraph
    steps = engine.run_stepwise(ALGORITHMS[algorithm_name](), CAP)
    held = None
    while True:
        try:
            event = next(steps)
        except StopIteration as stop:
            return stop.value, engine.pgraph, held
        if held is None and engine.pgraph is not first:
            # the rollback restored this checkpoint, then rebalanced
            assert event.kind == "rollback"
            held = engine.checkpoint_store.peek()


def run_on(pgraph, algorithm_name, resume_from, degraded):
    """The twin: a fresh cluster on ``pgraph``, ``degraded`` nodes on
    their host path from the start, no fault to rebalance on."""
    cluster = SPEC.build()
    plug = GXPlug(cluster, CONFIG)
    for node_id in degraded:
        plug.agent_for(node_id).degraded = True
    engine = PowerGraphEngine(pgraph, cluster, plug)
    return engine.run(ALGORITHMS[algorithm_name](), max_iterations=CAP,
                      resume_from=resume_from)


@pytest.mark.parametrize("algorithm_name",
                         ["cc", "sssp-bf", "bfs", "pagerank"])
@pytest.mark.parametrize("superstep,node_id", CRASHES,
                         ids=[f"crash{n}@{s}" for s, n in CRASHES])
def test_degraded_rebalance_ends_where_the_final_placement_does(
        superstep, node_id, algorithm_name):
    live, final, held = degraded_run(algorithm_name, superstep, node_id)
    assert live.degraded_nodes == [node_id]
    assert live.rebalance_events == 1 and held is not None
    twin = run_on(final, algorithm_name, held, live.degraded_nodes)
    assert twin.degraded_nodes == live.degraded_nodes
    assert twin.rebalance_events == 0 and twin.rollbacks == 0
    assert twin.converged == live.converged
    assert twin.iterations == live.iterations
    assert twin.values.tobytes() == live.values.tobytes()
    after = live.stats[held.iteration:]
    assert len(after) == len(twin.stats)
    for ours, theirs in zip(after, twin.stats):
        for name in STATS:
            assert getattr(theirs, name) == getattr(ours, name), \
                f"superstep {ours.index}: {name}"
