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
flagged uplinks, folds into its coefficient).
"""

import numpy as np
import pytest

from repro import NETWORK_RESILIENT, RESILIENT, GXPlug
from repro.algorithms import ALGORITHMS
from repro.core import StragglerConfig
from repro.core.config import ClusterSpec
from repro.engines import PowerGraphEngine
from repro.fault import LINK_SLOW, SLOWDOWN, FaultPlan
from repro.graph import road_network

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
