"""Tests for triplet blocks, block areas and pointer rotation."""

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.core.blocks import (
    AreaSet,
    BlockArea,
    TripletBlock,
    build_blocks,
)
from repro.errors import MiddlewareError
from repro.graph import greedy_vertex_cut, hash_partition, rmat


def make_block(n=4, index=0):
    return TripletBlock(index=index, num_entities=n, merged_size=n)


def test_triplet_block_counts():
    b = make_block(5)
    assert b.num_entities == 5
    assert b.merged_size == 5
    assert b.fetched_entities == 0


def test_triplet_block_validation():
    """merged_size comes from the algorithm author's template: a merge
    yields at most one entry per message, never a negative count."""
    with pytest.raises(MiddlewareError):
        TripletBlock(0, num_entities=3, merged_size=4)
    with pytest.raises(MiddlewareError):
        TripletBlock(0, num_entities=3, merged_size=-1)


def test_build_blocks_sizes_and_order():
    dst = np.array([1, 1, 2, 3, 3, 3, 3, 3, 4, 5])
    blocks = list(build_blocks(dst, np.ones((10, 1)), block_size=4,
                               algorithm=PageRank()))
    assert [b.num_entities for b in blocks] == [4, 4, 2]
    assert [b.index for b in blocks] == [0, 1, 2]
    # each block is sized by its own slice's block-local merge
    assert [b.merged_size for b in blocks] == [3, 1, 2]


def test_build_blocks_views_not_copies():
    """Blocks are sized from numpy views: zero-copy slicing."""
    seen = []

    class Recording(PageRank):
        def merged_size(self, dst_ids, messages):
            seen.append((dst_ids, messages))
            return super().merged_size(dst_ids, messages)

    dst, msgs = np.arange(8), np.ones((8, 1))
    list(build_blocks(dst, msgs, 3, Recording()))
    assert len(seen) == 3
    assert all(d.base is dst and m.base is msgs for d, m in seen)


def test_build_blocks_validation():
    with pytest.raises(MiddlewareError):
        list(build_blocks(np.arange(3), np.ones((3, 1)), 0, PageRank()))


def test_area_set_initial_roles_distinct():
    areas = AreaSet()
    assert areas.n is not areas.c
    assert areas.c is not areas.u
    assert areas.n is not areas.u


def test_rotation_moves_roles_not_data():
    """The §III-A2 guarantee: rotation is pointer shuffling, no copies."""
    areas = AreaSet()
    block = make_block()
    areas.n.block = block
    n_area, c_area, u_area = areas.n, areas.c, areas.u
    areas.rotate()
    # the physical area that held the download is now the compute area
    assert areas.c is n_area
    assert areas.c.block is block          # identical object: no copy
    assert areas.u is c_area
    assert areas.n is u_area
    assert areas.rotations == 1


def test_three_rotations_return_to_start():
    areas = AreaSet()
    start = (areas.n, areas.c, areas.u)
    for _ in range(3):
        areas.rotate()
    assert (areas.n, areas.c, areas.u) == start


def test_block_area_clear():
    area = BlockArea("x")
    assert area.empty
    area.block = make_block()
    assert not area.empty
    area.clear()
    assert area.empty


def test_vertex_edge_map_lookup():
    """The §II-B vertex-edge mapping table is the partition index's
    ``sources``: per part, the distinct source ids of its edges,
    ascending — every local edge's source is in it and nothing else."""
    graph = rmat(256, 2048, seed=9)
    for pg in (hash_partition(graph, 3), greedy_vertex_cut(graph, 3)):
        assert len(pg.index.sources) == pg.num_partitions
        for part, sources in zip(pg.parts, pg.index.sources):
            assert np.all(np.diff(sources) > 0)      # distinct, ascending
            assert np.isin(part.src, sources).all()
            assert np.isin(sources, part.src).all()
