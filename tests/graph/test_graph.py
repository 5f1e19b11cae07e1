"""Unit tests for the CSR Graph structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import Graph, distinct_ids


def small_graph():
    #  0 -> 1 (w=2), 0 -> 2 (w=3), 1 -> 2 (w=1), 2 -> 0 (w=5)
    return Graph.from_edges(3, [0, 0, 1, 2], [1, 2, 2, 0], [2.0, 3.0, 1.0, 5.0])


def test_basic_counts():
    g = small_graph()
    assert g.num_vertices == 3
    assert g.num_edges == 4


def test_out_degrees_and_in_degrees():
    g = small_graph()
    assert g.out_degrees().tolist() == [2, 1, 1]
    assert g.in_degrees().tolist() == [1, 1, 2]
    assert g.max_degree() == 2
    assert g.average_degree() == pytest.approx(4 / 3)


def test_out_edges_returns_dst_and_weights():
    g = small_graph()
    dst, w = g.out_edges(0)
    assert sorted(dst.tolist()) == [1, 2]
    assert sorted(w.tolist()) == [2.0, 3.0]
    assert g.out_neighbors(1).tolist() == [2]


def test_out_edges_out_of_range():
    g = small_graph()
    with pytest.raises(GraphError):
        g.out_edges(3)
    with pytest.raises(GraphError):
        g.out_edges(-1)


def test_edges_iterator_matches_csr_arrays():
    g = small_graph()
    triples = list(g.edges())
    assert len(triples) == 4
    assert (0, 1, 2.0) in triples
    assert (2, 0, 5.0) in triples


def test_reverse_swaps_directions():
    g = small_graph()
    r = g.reverse()
    assert r.num_edges == g.num_edges
    assert sorted(zip(r.src.tolist(), r.dst.tolist())) == sorted(
        zip(g.dst.tolist(), g.src.tolist()))
    assert r.in_degrees().tolist() == g.out_degrees().tolist()


def test_to_undirected_doubles_edges():
    g = small_graph()
    u = g.to_undirected()
    assert u.num_edges == 2 * g.num_edges


def test_default_weights_are_one():
    g = Graph.from_edges(2, [0], [1])
    assert g.weights.tolist() == [1.0]


def test_input_validation():
    with pytest.raises(GraphError):
        Graph.from_edges(2, [0, 1], [1])  # length mismatch
    with pytest.raises(GraphError):
        Graph.from_edges(2, [0], [5])  # out of range
    with pytest.raises(GraphError):
        Graph.from_edges(2, [-1], [0])  # negative id
    with pytest.raises(GraphError):
        Graph.from_edges(-1, [], [])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [0], [1], [1.0, 2.0])  # weights mismatch


def test_empty_graph():
    g = Graph.empty(5)
    assert g.num_vertices == 5
    assert g.num_edges == 0
    assert g.out_degrees().tolist() == [0] * 5
    assert g.average_degree() == 0.0
    assert Graph.empty().max_degree() == 0


def test_self_loops_and_parallel_edges_allowed():
    g = Graph.from_edges(2, [0, 0, 1], [0, 1, 1], [1, 2, 3])
    assert g.num_edges == 3
    assert g.out_degrees().tolist() == [2, 1]


def test_csr_invariant_src_sorted():
    g = Graph.from_edges(4, [3, 0, 2, 0, 1], [0, 1, 3, 2, 2])
    assert np.all(np.diff(g.src) >= 0)
    # indptr consistent with src
    for v in range(4):
        lo, hi = g.indptr[v], g.indptr[v + 1]
        assert np.all(g.src[lo:hi] == v)


def test_subgraph_edges():
    g = small_graph()
    src, dst, w = g.subgraph_edges(np.array([0, 3]))
    assert src.size == 2
    with pytest.raises(GraphError):
        g.subgraph_edges(np.array([99]))


def test_memory_footprint():
    g = small_graph()
    assert g.memory_footprint(bytes_per_edge=10, bytes_per_vertex=2) == 46


def test_equality():
    assert small_graph() == small_graph()
    assert small_graph() != Graph.empty(3)


# -- distinct_ids: np.unique's result without np.unique's cost -------------------


def assert_is_np_unique(ids):
    got, want = distinct_ids(ids), np.unique(ids)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("ids", [
    np.empty(0, dtype=np.int64),
    np.array([4]),
    np.full(9, 3),                              # all equal
    np.array([0, 1, 1, 2, 5, 5, 5, 9]),         # sorted, duplicates
    np.array([9, 5, 0, 5, 2, 1, 5, 1]),         # unsorted, duplicates
    np.arange(20)[::-1],                        # descending, distinct
    np.array([[3, 1], [1, 2]]),                 # flattened like np.unique
    np.array([7, 2, 7], dtype=np.int32),
], ids=["empty", "one", "all-equal", "sorted", "unsorted", "descending",
        "2d", "int32"])
def test_distinct_ids_cases(ids):
    assert_is_np_unique(ids)


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(st.integers(-50, 50), max_size=80))
def test_distinct_ids_equals_np_unique(ids):
    arr = np.asarray(ids, dtype=np.int64)
    before = arr.copy()
    assert_is_np_unique(arr)
    assert_is_np_unique(np.sort(arr))
    assert np.array_equal(arr, before)      # the input is not sorted in place
