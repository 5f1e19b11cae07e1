#!/usr/bin/env python
"""Network fault tolerance: surviving a node partition mid-sync.

Every middleware routes each global sync collective through an
ack/retransmit transport.  A seeded campaign of transient network
faults (dropped, delayed, duplicated fragments, failed collectives) is
absorbed invisibly: each fault costs bounded recovery time and the
ranks stay bit-for-bit.  A full node partition is nastier: the
transport exhausts its retransmit budget and raises a NodeUnreachable
verdict, and — under the NETWORK_RESILIENT preset — the engine rolls
back to the last checkpoint, degrades the unreachable node to its host
(CPU) path, and rebalances the partition with Lemma-2 shares — the slow
node ends up owning fewer vertices.
"""

import numpy as np

from repro.api import (
    NET_DELAY,
    NET_DROP,
    NET_DUP,
    NETWORK_RESILIENT,
    NODE_PARTITION,
    SYNC_FAIL,
    ClusterSpec,
    FaultPlan,
    GXPlug,
    PageRank,
    PowerGraphEngine,
    load_dataset,
)

NODES = 4


def build(graph, config):
    cluster = ClusterSpec(nodes=NODES, gpus_per_node=1).build()
    plug = GXPlug(cluster, config)
    engine = PowerGraphEngine.build(graph, cluster, middleware=plug)
    return engine, plug


def masters_per_node(engine):
    return np.bincount(engine.pgraph.master_of, minlength=NODES)


def main() -> None:
    graph = load_dataset("wrn")
    print(f"PageRank on {graph}, {NODES} nodes x 1 GPU\n")

    # --- 1. the fault-free reference -------------------------------------
    engine, _ = build(graph, NETWORK_RESILIENT)
    base = engine.run(PageRank(), max_iterations=10)
    print(f"fault-free:   {base.summary()}")

    # --- 2. transient network faults, absorbed by the transport ----------
    campaign = FaultPlan.random(
        23, supersteps=10, num_nodes=NODES, rate=0.2,
        kinds=(NET_DROP, NET_DELAY, NET_DUP, SYNC_FAIL))
    engine, plug = build(graph, NETWORK_RESILIENT.with_(fault_plan=campaign))
    noisy = engine.run(PageRank(), max_iterations=10)
    drift = np.abs(noisy.values - base.values).max()
    print(f"\nnoisy net:    {noisy.summary()}")
    print(f"              {plug.fault_report(noisy).summary()}")
    print(f"              max rank drift vs fault-free: {drift:.2e}")
    assert drift < 1e-9, "retransmission must not change the results"
    assert noisy.rollbacks == 0, "transient faults heal without rollback"

    # --- 3. node partition: rollback + degrade + Lemma-2 rebalance -------
    plan = FaultPlan.single(NODE_PARTITION, superstep=4, node_id=2)
    engine, plug = build(graph, NETWORK_RESILIENT.with_(fault_plan=plan))
    before = masters_per_node(engine)
    cut = engine.run(PageRank(), max_iterations=10)
    after = masters_per_node(engine)
    drift = np.abs(cut.values - base.values).max()
    print(f"\npartitioned:  {cut.summary()}")
    print(f"              {plug.fault_report(cut).summary()}")
    print(f"              rollbacks={cut.rollbacks}, "
          f"degraded nodes={cut.degraded_nodes}, "
          f"rebalanced in {cut.rebalance_ms:.1f} simulated ms")
    print(f"              masters/node before: {before.tolist()}")
    print(f"              masters/node after:  {after.tolist()}")
    print(f"              max rank drift vs fault-free: {drift:.2e}")
    assert drift < 1e-9
    assert cut.degraded_nodes == [2]
    assert cut.rebalance_events == 1
    assert after[2] < before[2], "the degraded node must shed vertices"
    print("\nBoth faulty runs converged to the fault-free ranks.")


if __name__ == "__main__":
    main()
