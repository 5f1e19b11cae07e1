"""Tests for graph partitioners."""

import hashlib
from functools import partial

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph import (
    Graph,
    clustered_communities,
    clustering_partition,
    greedy_vertex_cut,
    hash_partition,
    partition,
    range_partition,
    rmat,
    uniform_random,
)
from repro.graph.partition import _build_from_edge_owners

STRATEGIES = ["hash", "range", "clustering", "greedy-vertex-cut"]


@pytest.fixture(scope="module")
def g():
    return rmat(512, 4096, seed=5)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_edge_assigned_exactly_once(g, strategy):
    pg = partition(g, 4, strategy=strategy)
    all_ids = np.concatenate([p.edge_ids for p in pg.parts])
    assert np.sort(all_ids).tolist() == list(range(g.num_edges))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_vertex_has_exactly_one_master(g, strategy):
    pg = partition(g, 4, strategy=strategy)
    assert pg.master_of.size == g.num_vertices
    assert pg.master_of.min() >= 0
    assert pg.master_of.max() < 4
    master_union = np.concatenate([p.masters for p in pg.parts])
    assert np.sort(master_union).tolist() == list(range(g.num_vertices))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_subgraph_edges_match_graph(g, strategy):
    pg = partition(g, 3, strategy=strategy)
    for p in pg.parts:
        assert np.array_equal(p.src, g.src[p.edge_ids])
        assert np.array_equal(p.dst, g.dst[p.edge_ids])
        assert np.array_equal(p.weights, g.weights[p.edge_ids])


@pytest.mark.parametrize("strategy", ["hash", "range", "clustering"])
def test_edge_cut_places_edges_at_source_master(g, strategy):
    pg = partition(g, 4, strategy=strategy)
    for p in pg.parts:
        assert np.all(pg.master_of[p.src] == p.node_id)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_mirrors_disjoint_from_masters(g, strategy):
    pg = partition(g, 4, strategy=strategy)
    for p in pg.parts:
        assert not set(p.mirrors.tolist()) & set(p.masters.tolist())
        assert set(p.referenced.tolist()) >= set(p.mirrors.tolist())


def test_single_partition_trivial(g):
    pg = hash_partition(g, 1)
    assert pg.num_partitions == 1
    assert pg.parts[0].num_edges == g.num_edges
    assert pg.local_edge_fraction() == 1.0
    assert pg.out_local_mask().all()


def test_balanced_edge_counts_roughly_even(g):
    pg = range_partition(g, 4)
    counts = pg.edge_counts()
    assert counts.sum() == g.num_edges
    assert counts.max() <= 2.0 * counts.min() + 64


def test_shares_skew_partition_sizes(g):
    pg = range_partition(g, 2, shares=[0.75, 0.25])
    counts = pg.edge_counts()
    assert counts[0] > 2.0 * counts[1]


def test_shares_validation(g):
    with pytest.raises(PartitionError):
        range_partition(g, 2, shares=[1.0])
    with pytest.raises(PartitionError):
        range_partition(g, 2, shares=[-1.0, 2.0])
    with pytest.raises(PartitionError):
        range_partition(g, 2, shares=[0.0, 0.0])


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("shares", [
    [float("nan"), 1.0], [float("inf"), 1.0], [1.0, float("-inf")],
    [1e308, 1e308],                     # each finite, the sum is not
], ids=["nan", "inf", "-inf", "sum-overflows"])
def test_non_finite_shares_are_refused(g, strategy, shares):
    """NaN used to slip through every comparison: greedy put every edge
    on node 0, range returned one part for two nodes, hash raised
    numpy's ValueError."""
    with pytest.raises(PartitionError, match="finite"):
        partition(g, 2, strategy=strategy, shares=shares)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("shares", [
    [1.0, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4, 0.0, 0.0],
], ids=["2-one-zero", "3-one-zero", "5-two-zeros"])
def test_trailing_zero_shares_keep_every_part(strategy, shares):
    """Edge-cut partitioners used to infer the part count from the
    highest master id, so nodes given no vertices vanished: hash with
    [1, 0] returned one part."""
    g = rmat(200, 1000, seed=1)
    pg = partition(g, len(shares), strategy=strategy, shares=shares)
    assert pg.num_partitions == len(shares)
    assert [p.node_id for p in pg.parts] == list(range(len(shares)))
    all_ids = np.concatenate([p.edge_ids for p in pg.parts])
    assert np.sort(all_ids).tolist() == list(range(g.num_edges))


def test_clustering_keeps_a_part_that_grew_no_region():
    """Region growing can use up the vertices before the last node:
    nine parts on 200 vertices came back as eight."""
    pg = clustering_partition(rmat(200, 1000, seed=1), 9)
    assert pg.num_partitions == 9
    assert pg.parts[8].num_masters == 0


@pytest.mark.parametrize("owner, master_of", [
    ([0, 1, 2, 5], [0, 1, 0]),          # kept 2 of 4 edges on 2 parts
    ([0, 1, -1, 0], [0, 1, 0]),
    ([0, 1, 1, 0], [0, 2, 0]),          # a master no part would list
], ids=["owner-too-high", "owner-negative", "master-too-high"])
def test_out_of_range_placements_are_refused(owner, master_of):
    g = Graph.from_edges(3, [0, 1, 2, 0], [1, 2, 0, 2])
    with pytest.raises(PartitionError, match="outside the 2 partitions"):
        _build_from_edge_owners(g, np.array(master_of), np.array(owner),
                                "manual", 2)


def test_clustering_beats_hash_on_locality():
    g = clustered_communities(8, 64, seed=3)
    hash_pg = hash_partition(g, 8)
    clus_pg = clustering_partition(g, 8, seed=3)
    assert clus_pg.local_edge_fraction() > hash_pg.local_edge_fraction()


def test_out_local_mask_definition(g):
    pg = hash_partition(g, 4)
    mask = pg.out_local_mask()
    # verify against direct computation for a sample of vertices
    for v in range(0, g.num_vertices, 37):
        nbrs = g.out_neighbors(v)
        expected = bool(np.all(pg.master_of[nbrs] == pg.master_of[v]))
        assert mask[v] == expected


def test_vertex_cut_replicates_high_degree_vertices():
    g = rmat(256, 4096, seed=1)
    pg = greedy_vertex_cut(g, 4)
    assert pg.replication_factor() > 1.0
    # highest-degree vertex should appear on multiple nodes
    hub = int(np.argmax(g.out_degrees() + g.in_degrees()))
    appearances = sum(hub in p.referenced for p in pg.parts)
    assert appearances >= 2


def test_vertex_cut_lower_replication_than_random():
    """Greedy placement should replicate less than scattering edges."""
    g = rmat(256, 2048, seed=2)
    greedy = greedy_vertex_cut(g, 4)
    # a random edge scatter baseline
    rng = np.random.default_rng(0)
    owner = rng.integers(0, 4, g.num_edges)
    appearances = 0
    for node in range(4):
        ids = np.nonzero(owner == node)[0]
        appearances += np.union1d(g.src[ids], g.dst[ids]).size
    random_rep = appearances / g.num_vertices
    assert greedy.replication_factor() < random_rep


def _parts_digest(pg):
    """SHA-256 over the strategy, ``master_of`` and every part array."""
    h = hashlib.sha256()
    h.update(pg.strategy.encode())
    h.update(np.ascontiguousarray(pg.master_of).tobytes())
    for part in pg.parts:
        for name in ("edge_ids", "src", "dst", "weights", "masters",
                     "referenced", "mirrors"):
            arr = getattr(part, name)
            h.update(f"{part.node_id}:{name}:{arr.dtype}:{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("make_graph, nodes, shares, expected", [
    (partial(rmat, 512, 4096, seed=5), 4, None,
     "d3666e254bcdd75c68e12989516bb1b285e1da34c288e65fb378316e2f6e1be9"),
    (partial(uniform_random, 300, 2000, seed=11), 3, [0.5, 0.3, 0.2],
     "f2410f4b995195b3c5e887a2261524a10e14a220258e29273469ce6660a0eedb"),
    (partial(rmat, 30000, 240000, seed=3), 4, None,
     "38a4a811852d35f176554557d85888f8ebfdda5f4ced4aed88ced746b0bda223"),
    (partial(rmat, 20000, 120000, seed=7), 2, None,
     "f46117a3c027ca204fbe8af5851cdb6246e8c6e2f8ab16e695ef44a4403edafc"),
    (partial(rmat, 30000, 240000, seed=3), 4, [0.4, 0.3, 0.2, 0.1],
     "9039c0ae42d9485bd7aac8854801c946f935b4ad63b2b487418f0ec96463e331"),
], ids=["rmat", "uniform-shares", "rmat-30k-4", "rmat-20k-2",
        "rmat-30k-4-shares"])
def test_vertex_cut_parts_equal_the_hand_assembled_ones(make_graph, nodes,
                                                        shares, expected):
    """greedy_vertex_cut assembles its parts through the shared
    _build_from_edge_owners; the first two digests were taken at commit
    63802eb, whose greedy_vertex_cut built every Subgraph array by hand.
    The three at benchmark scale (the batch workloads' 30k/240k on 4
    nodes, the hot-path bench's 20k/120k on 2, and a Lemma-2 unequal
    split) were taken at 6ae3f0a, whose placement loop scored every
    node on every edge."""
    pg = greedy_vertex_cut(make_graph(), nodes, shares=shares)
    assert _parts_digest(pg) == expected


def test_unknown_strategy_raises(g):
    with pytest.raises(PartitionError):
        partition(g, 2, strategy="metis")


def test_invalid_partition_count(g):
    with pytest.raises(PartitionError):
        partition(g, 0)


def test_uniform_graph_hash_locality_matches_expectation():
    g = uniform_random(1000, 10000, seed=4)
    pg = hash_partition(g, 4)
    # endpoints are independent => local fraction ~ 1/4
    assert pg.local_edge_fraction() == pytest.approx(0.25, abs=0.05)
