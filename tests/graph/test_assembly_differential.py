"""Part assembly and ``PartitionIndex`` against the forms they replace.

``_build_from_edge_owners`` slices every part's edge ids and masters
out of one stable order, and finds ``referenced`` through a vertex
mask; ``PartitionIndex.sources`` reads each part's distinct sources
off the runs of its ascending ``src``.  The per-part scans and sorts
they replace live on in :mod:`.reference_partition`; on any multigraph
and any placement both must assemble byte-identical parts and indexes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import PartitionIndex, partition, rmat
from repro.graph.partition import _build_from_edge_owners

from .reference_partition import (ReferencePartitionIndex,
                                  reference_build_from_edge_owners)
from .test_partition import STRATEGIES, _parts_digest
from .test_vertex_cut_differential import multigraphs

INDEX_ARRAYS = ("replica_count", "stored_local", "out_local")
INDEX_LISTS = ("sources", "is_master")


def assert_same_index(got, want):
    for name in INDEX_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in INDEX_LISTS:
        a, b = getattr(got, name), getattr(want, name)
        assert len(a) == len(b), name
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and np.array_equal(x, y), name


def assert_assembles_like_the_reference(graph, master_of, owner, k):
    fast = _build_from_edge_owners(graph, master_of, owner, "manual", k)
    oracle = reference_build_from_edge_owners(graph, master_of, owner,
                                              "manual", k)
    assert _parts_digest(fast) == _parts_digest(oracle)
    assert_same_index(PartitionIndex(fast), ReferencePartitionIndex(oracle))
    for part in fast.parts:
        assert np.all(np.diff(part.edge_ids) > 0)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_assembly_equals_the_per_part_scans(data):
    graph = data.draw(multigraphs())
    k = data.draw(st.integers(1, 8))

    def node_ids(size):
        raw = data.draw(st.binary(min_size=size, max_size=size))
        return np.frombuffer(raw, dtype=np.uint8).astype(np.int64) % k

    owner = node_ids(graph.num_edges)
    master_of = node_ids(graph.num_vertices)
    assert_assembles_like_the_reference(graph, master_of, owner, k)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("k", [1, 3, 4])
def test_every_partitioner_assembles_like_the_reference(strategy, k):
    pg = partition(rmat(3000, 24000, seed=8), k, strategy=strategy)
    owner = np.empty(pg.graph.num_edges, dtype=np.int64)
    for part in pg.parts:
        owner[part.edge_ids] = part.node_id
    oracle = reference_build_from_edge_owners(pg.graph, pg.master_of, owner,
                                              pg.strategy, k)
    assert _parts_digest(pg) == _parts_digest(oracle)
    assert_same_index(pg.index, ReferencePartitionIndex(oracle))


def test_a_graph_over_many_ids_assembles_like_the_reference():
    """More vertices than a 16-bit key holds, and more parts than a
    round of 8 bits of owner ids would need."""
    graph = rmat(70_000, 20_000, seed=2)
    rng = np.random.default_rng(4)
    k = 300
    assert_assembles_like_the_reference(
        graph, rng.integers(0, k, graph.num_vertices),
        rng.integers(0, k, graph.num_edges), k)
