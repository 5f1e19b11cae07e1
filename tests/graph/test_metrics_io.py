"""Tests for graph metrics."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    clustered_communities,
    clustering_partition,
    degree_histogram,
    degree_skew,
    edge_cut,
    edge_cut_fraction,
    hash_partition,
    load_imbalance,
    partition_report,
    rmat,
    skip_potential,
    uniform_random,
    weighted_imbalance,
)


# -- metrics -------------------------------------------------------------------


def test_degree_skew_discriminates_distributions():
    skew_rmat = degree_skew(rmat(1024, 16384, seed=0))
    skew_uniform = degree_skew(uniform_random(1024, 16384, seed=0))
    assert skew_rmat > 2 * skew_uniform
    assert degree_skew(Graph.empty(4)) == 0.0


def test_degree_histogram_counts_all_vertices():
    g = rmat(256, 2048, seed=1)
    hist = degree_histogram(g)
    assert hist["counts"].sum() == g.num_vertices
    with pytest.raises(GraphError):
        degree_histogram(g, bins=0)


def test_edge_cut_single_partition_is_zero():
    g = rmat(128, 512, seed=2)
    pg = hash_partition(g, 1)
    assert edge_cut(pg) == 0
    assert edge_cut_fraction(pg) == 0.0
    assert skip_potential(pg) == 1.0


def test_edge_cut_matches_locality():
    g = rmat(128, 512, seed=2)
    pg = hash_partition(g, 4)
    assert edge_cut_fraction(pg) == pytest.approx(
        1.0 - pg.local_edge_fraction())


def test_clustering_partition_scores_better():
    g = clustered_communities(8, 64, seed=5)
    hashed = partition_report(hash_partition(g, 8))
    clustered = partition_report(clustering_partition(g, 8, seed=5))
    assert clustered["edge_cut_fraction"] < hashed["edge_cut_fraction"]
    assert clustered["skip_potential"] > hashed["skip_potential"]


def test_load_imbalance_bounds():
    g = rmat(256, 2048, seed=3)
    pg = hash_partition(g, 4)
    imbalance = load_imbalance(pg)
    assert imbalance >= 1.0
    # single partition is trivially balanced
    assert load_imbalance(hash_partition(g, 1)) == 1.0


def test_weighted_imbalance_ideal_when_proportional():
    g = rmat(512, 8192, seed=4)
    from repro.graph import range_partition
    pg = range_partition(g, 2, shares=[0.75, 0.25])
    # capacities proportional to the shares -> near-ideal balance
    assert weighted_imbalance(pg, [3.0, 1.0]) == pytest.approx(1.0,
                                                               abs=0.1)
    # equal capacities see the skew
    assert weighted_imbalance(pg, [1.0, 1.0]) > 1.3


def test_weighted_imbalance_validation():
    g = rmat(64, 256, seed=5)
    pg = hash_partition(g, 2)
    with pytest.raises(GraphError):
        weighted_imbalance(pg, [1.0])
    with pytest.raises(GraphError):
        weighted_imbalance(pg, [1.0, 0.0])


def test_partition_report_keys():
    g = rmat(128, 512, seed=6)
    report = partition_report(hash_partition(g, 4))
    assert set(report) == {
        "partitions", "edge_cut_fraction", "local_edge_fraction",
        "replication_factor", "load_imbalance", "skip_potential",
    }
