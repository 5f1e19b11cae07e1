"""Unit tests for the synchronization-skipping detector."""

import numpy as np
import pytest

from repro.core import MessageSet, SkipDetector
from repro.graph import Graph, hash_partition, clustering_partition


def two_island_graph():
    """Vertices 0-3 and 4-7 form two islands with one bridge 3->4."""
    src = [0, 1, 2, 4, 5, 6, 3]
    dst = [1, 2, 3, 5, 6, 7, 4]
    return Graph.from_edges(8, src, dst)


def island_partition():
    g = two_island_graph()
    master_of = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    from repro.graph.partition import _build_from_edge_owners
    return _build_from_edge_owners(g, master_of, master_of[g.src],
                                   "manual", 2)


def ms(ids, width=1):
    ids = np.asarray(ids, dtype=np.int64)
    return MessageSet(ids, np.zeros((ids.size, width)))


def empty_changed(pg):
    return {p.node_id: np.empty(0, dtype=np.int64) for p in pg.parts}


def test_local_messages_allow_skip():
    pg = island_partition()
    det = SkipDetector(pg)
    partials = {0: ms([1, 2]), 1: ms([5, 6])}
    changed = {0: np.array([1, 2]), 1: np.array([5, 6])}
    assert det.messages_are_local(partials)
    assert det.can_skip(partials, changed)
    assert det.stats.skipped_iterations == 1


def test_foreign_message_blocks_skip():
    pg = island_partition()
    det = SkipDetector(pg)
    partials = {0: ms([4]), 1: ms([5])}  # node 0 targets island 2's master
    assert not det.messages_are_local(partials)
    assert not det.can_skip(partials, empty_changed(pg))
    assert det.stats.total_iterations == 1
    assert det.stats.skipped_iterations == 0


def test_bridge_vertex_update_blocks_skip():
    """Vertex 3's out-edge crosses to node 1, so updating 3 forbids the
    skip (the paper's 'updated vertex and its outer edges in the same
    node' check)."""
    pg = island_partition()
    det = SkipDetector(pg)
    partials = {0: ms([3]), 1: ms([])}
    changed = {0: np.array([3]), 1: np.empty(0, dtype=np.int64)}
    assert det.messages_are_local(partials)
    assert not det.updates_are_local(changed)
    assert not det.can_skip(partials, changed)


def test_foreign_mastered_update_blocks_skip():
    pg = island_partition()
    det = SkipDetector(pg)
    changed = {0: np.array([5]), 1: np.empty(0, dtype=np.int64)}
    assert not det.updates_are_local(changed)


def test_empty_iteration_skips():
    pg = island_partition()
    det = SkipDetector(pg)
    partials = {0: ms([]), 1: ms([])}
    assert det.can_skip(partials, empty_changed(pg))


def test_skip_fraction():
    pg = island_partition()
    det = SkipDetector(pg)
    det.can_skip({0: ms([1])}, {0: np.array([1])})    # skip
    det.can_skip({0: ms([4])}, {0: np.array([4])})    # no skip
    assert det.stats.skip_fraction == pytest.approx(0.5)
    assert SkipDetector(pg).stats.skip_fraction == 0.0


def test_clustering_partition_skips_more_than_hash():
    from repro.graph import clustered_communities
    g = clustered_communities(4, 32, inter_edge_fraction=0.0, seed=1)
    clus = SkipDetector(clustering_partition(g, 4, seed=1))
    hashed = SkipDetector(hash_partition(g, 4))
    assert clus._out_local.mean() > hashed._out_local.mean()
