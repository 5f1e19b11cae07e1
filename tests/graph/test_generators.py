"""Tests for synthetic graph generators."""

import hashlib

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    clustered_communities,
    complete,
    cycle,
    load_dataset,
    path,
    rmat,
    road_network,
    star,
    uniform_random,
)


def test_rmat_shape_and_determinism():
    g1 = rmat(256, 2048, seed=3)
    g2 = rmat(256, 2048, seed=3)
    assert g1.num_vertices == 256
    assert g1.num_edges == 2048
    assert g1 == g2


def test_rmat_different_seeds_differ():
    assert rmat(256, 2048, seed=1) != rmat(256, 2048, seed=2)


def test_rmat_is_skewed():
    """R-MAT should concentrate edges on few vertices (power-law-ish)."""
    g = rmat(1024, 16384, seed=0)
    deg = np.sort(g.out_degrees())[::-1]
    top_share = deg[: len(deg) // 20].sum() / deg.sum()  # top 5% of vertices
    assert top_share > 0.25


def _arrays_digest(g):
    h = hashlib.sha256()
    for arr in (g.indptr, g.src, g.dst, g.weights):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("build, digest", [
    (lambda: rmat(30_000, 240_000, seed=7),
     "fa05cd7690b57c4167cb65881b9b3a9744cb54f5a30eb4d774cf39da7d6b230c"),
    (lambda: load_dataset("twitter"),
     "8eeece8721a79deb4ba25758ae9913bf8d0c2a7f94310dc8837fd98211f7fbec"),
], ids=["rmat-30k-240k", "twitter-twin"])
def test_rmat_arrays_are_pinned(build, digest):
    """Every dataset twin and bench graph is an R-MAT draw: the
    quadrant compares must keep ``searchsorted``'s answer, bit for bit
    (digests of the CSR arrays taken before the compares replaced it)."""
    assert _arrays_digest(build()) == digest


def test_uniform_is_not_skewed():
    g = uniform_random(1024, 16384, seed=0)
    deg = np.sort(g.out_degrees())[::-1]
    top_share = deg[: len(deg) // 20].sum() / deg.sum()
    assert top_share < 0.15


def test_uniform_determinism():
    assert uniform_random(100, 500, seed=9) == uniform_random(100, 500, seed=9)


def test_road_network_low_degree_and_sparse():
    g = road_network(30, 30, seed=1)
    assert g.num_vertices == 900
    assert 0.9 <= g.average_degree() <= 2.5
    assert g.max_degree() <= 8


def test_star():
    g = star(5)
    assert g.num_vertices == 6
    assert g.out_degrees()[0] == 5
    assert g.in_degrees().tolist() == [0, 1, 1, 1, 1, 1]


def test_path_and_cycle():
    p = path(4)
    assert p.num_edges == 3
    c = cycle(4)
    assert c.num_edges == 4
    assert c.out_degrees().tolist() == [1, 1, 1, 1]


def test_complete():
    g = complete(4)
    assert g.num_edges == 12
    assert not any(s == d for s, d, _ in g.edges())


def test_clustered_communities_mostly_intra():
    g = clustered_communities(8, 50, seed=2)
    assert g.num_vertices == 400
    comm = np.arange(400) // 50
    same = comm[g.src] == comm[g.dst]
    assert same.mean() > 0.9


def test_generator_input_validation():
    with pytest.raises(GraphError):
        rmat(0, 10)
    with pytest.raises(GraphError):
        rmat(10, 10, a=0.5, b=0.3, c=0.3)  # a+b+c >= 1
    with pytest.raises(GraphError):
        uniform_random(0, 10)
    with pytest.raises(GraphError):
        road_network(0, 5)
    with pytest.raises(GraphError):
        star(-1)
    with pytest.raises(GraphError):
        path(0)
    with pytest.raises(GraphError):
        cycle(0)
    with pytest.raises(GraphError):
        complete(0)
    with pytest.raises(GraphError):
        clustered_communities(0, 5)


def test_unweighted_option():
    g = rmat(64, 256, seed=0, weighted=False)
    assert np.all(g.weights == 1.0)
