"""Unit tests for engine internals."""

import numpy as np

from repro.cluster import make_cluster
from repro.core import GXPlug, MiddlewareConfig
from repro.engines import GraphXEngine, PowerGraphEngine
from repro.engines.base import RunResult
from repro.graph import rmat

GRAPH = rmat(128, 1024, seed=31)


def test_select_edges_full_vs_frontier():
    cluster = make_cluster(2)
    bsp = GraphXEngine.build(GRAPH, cluster)       # full scan
    gas = PowerGraphEngine.build(GRAPH, cluster)   # frontier scan
    part = bsp.pgraph.parts[0]
    active = np.zeros(GRAPH.num_vertices, dtype=bool)
    active[part.src[0]] = True  # one active source on this node

    src_full, _, _ = bsp._select_edges(part, active)
    assert src_full.size == part.num_edges  # everything materializes

    gas_part = gas.pgraph.parts[0]
    gas_active = np.zeros(GRAPH.num_vertices, dtype=bool)
    gas_active[gas_part.src[0]] = True
    src_frontier, _, _ = gas._select_edges(gas_part, gas_active)
    assert 0 < src_frontier.size < gas_part.num_edges


def test_select_edges_force_frontier_overrides_full():
    cluster = make_cluster(2)
    bsp = GraphXEngine.build(GRAPH, cluster)
    part = bsp.pgraph.parts[0]
    active = np.zeros(GRAPH.num_vertices, dtype=bool)
    active[part.src[0]] = True
    src, _, _ = bsp._select_edges(part, active, force_frontier=True)
    assert src.size < part.num_edges


def test_select_edges_quiescent_partition_does_nothing():
    cluster = make_cluster(2)
    bsp = GraphXEngine.build(GRAPH, cluster)
    part = bsp.pgraph.parts[0]
    active = np.zeros(GRAPH.num_vertices, dtype=bool)
    src, dst, w = bsp._select_edges(part, active)
    assert src.size == dst.size == w.size == 0


def test_mirror_sync_cells_counts_replicas():
    cluster = make_cluster(3)
    gas = PowerGraphEngine.build(GRAPH, cluster)
    replicated = np.nonzero(gas._replica_count > 1)[0]
    assert replicated.size > 0  # vertex cut replicates something
    cells = gas._mirror_sync_cells(replicated[:5], width=2)
    expected = int((gas._replica_count[replicated[:5]] - 1).sum()) * 2
    assert cells == expected
    assert gas._mirror_sync_cells(np.empty(0, dtype=np.int64), 4) == 0
    # BSP engine has no mirror traffic
    bsp = GraphXEngine.build(GRAPH, cluster)
    assert bsp._mirror_sync_cells(replicated[:5], 2) == 0


def test_stored_local_true_for_edge_cut():
    cluster = make_cluster(3)
    bsp = GraphXEngine.build(GRAPH, cluster)
    assert bsp._stored_local.all()   # edges live at their source's master
    gas = PowerGraphEngine.build(GRAPH, cluster)
    assert not gas._stored_local.all()   # vertex cut spreads edges


def test_sync_cost_lazy_uploads_less():
    cluster = make_cluster(4, gpus_per_node=1)
    plug = GXPlug(cluster, MiddlewareConfig(sync_skip=False))
    engine = GraphXEngine.build(GRAPH, cluster, middleware=plug)
    changed = {p.node_id: p.masters[:20] for p in engine.pgraph.parts}
    everyone = np.ones(GRAPH.num_vertices, dtype=bool)
    lazy_ms, lazy_uploads, needed = engine._sync_cost(
        changed, everyone, width=1, use_lazy=True)
    eager_ms, eager_uploads, _ = engine._sync_cost(
        changed, everyone, width=1, use_lazy=False)
    assert lazy_uploads <= eager_uploads
    assert set(needed) == {0, 1, 2, 3}
    # nobody-needs-anything next iteration -> lazy uploads nothing
    nobody = np.zeros(GRAPH.num_vertices, dtype=bool)
    _, none_uploads, _ = engine._sync_cost(changed, nobody, width=1,
                                           use_lazy=True)
    assert none_uploads == 0


def test_run_result_properties():
    result = RunResult(
        values=np.zeros(3), iterations=0, total_ms=0.0, setup_ms=0.0,
        converged=False, stats=[], breakdown={}, engine_name="e",
        algorithm_name="a")
    assert result.middleware_ratio == 0.0
    assert result.computation_iterations == 0
    assert "e/a" in result.summary()
