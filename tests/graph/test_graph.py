"""Unit tests for the CSR Graph structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import Graph, distinct_ids
from repro.graph.graph import stable_order


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


@pytest.mark.parametrize("ids", [
    [0.7, 1.2],                                 # truncated to [0, 1]
    np.array([0.7, 1.2]),
    np.array([0.0, 1.0]),                       # integral, still floats
], ids=["float-list", "float-array", "integral-float-array"])
def test_non_integer_ids_are_refused(ids):
    with pytest.raises(GraphError, match="integers"):
        Graph.from_edges(3, ids, [1, 2])
    with pytest.raises(GraphError, match="integers"):
        Graph.from_edges(3, [1, 2], ids)


def test_bool_ids_are_refused():
    with pytest.raises(GraphError, match="integers"):
        Graph.from_edges(3, [True, False], [1, 2])
    with pytest.raises(GraphError, match="integers"):
        Graph.from_edges(3, np.array([0, 1]), np.array([True, True]))


def test_two_dimensional_ids_are_refused():
    ids = np.array([[0, 1], [1, 2]])
    with pytest.raises(GraphError, match="1-D"):
        Graph.from_edges(3, ids, ids)


def test_integer_ids_of_any_width_are_accepted():
    for dtype in (np.int8, np.uint16, np.int32, np.uint64):
        g = Graph.from_edges(3, np.array([2, 0], dtype=dtype),
                             np.array([1, 2], dtype=dtype))
        assert g.src.dtype == np.int64
        assert g.src.tolist() == [0, 2]


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


# -- stable_order: np.argsort(kind="stable") through the narrowest key ------------

#: a bound at each key-width edge: 8-bit, 16-bit, two 16-bit passes, int64
BOUNDS = [1, 2, 2**8 - 1, 2**8, 2**8 + 1, 2**16 - 1, 2**16, 2**16 + 1,
          2**32 - 1, 2**32, 2**32 + 1, 2**40]


def assert_is_stable_argsort(keys, bound):
    got, want = stable_order(keys, bound), np.argsort(keys, kind="stable")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@st.composite
def keys_below(draw):
    """Keys below a bound at a width edge, crowded so that equal keys,
    equal 16-bit halves and the largest keys all occur."""
    bound = draw(st.sampled_from(BOUNDS))
    near_top = st.integers(max(0, bound - 3), bound - 1)
    # few distinct high and low 16-bit halves, so both passes see ties
    halves = st.tuples(st.sampled_from([0, 1, (bound - 1) >> 16]),
                       st.integers(0, 3)).map(
        lambda hl: min(bound - 1, (hl[0] << 16) | hl[1]))
    key = st.one_of(st.integers(0, bound - 1), near_top, halves,
                    st.just(0))
    return np.asarray(draw(st.lists(key, max_size=60)), dtype=np.int64), \
        bound


@settings(max_examples=300, deadline=None)
@given(case=keys_below())
def test_stable_order_equals_stable_argsort(case):
    keys, bound = case
    assert_is_stable_argsort(keys, bound)


@pytest.mark.parametrize("bound", BOUNDS)
def test_stable_order_edge_inputs(bound):
    top = bound - 1
    for keys in ([], [top], [0], [top] * 7, [0] * 7,
                 [top, 0, top, 0, top], list(range(min(bound, 5)))[::-1]):
        assert_is_stable_argsort(np.asarray(keys, dtype=np.int64), bound)


@pytest.mark.parametrize("bound", [2**8, 2**16, 2**32])
@pytest.mark.parametrize("tail", [0.0, 0.01, 0.2, 1.0])
def test_stable_order_on_sorted_keys_with_a_shuffled_tail(tail, bound):
    """A short unsorted tail (a mutation's appended edges) keeps the
    keys nearly sorted and takes timsort; a long one takes the radix
    passes.  Both give the stable argsort."""
    rng = np.random.default_rng(0)
    m = 4000
    k = int(tail * m)
    keys = np.concatenate([np.sort(rng.integers(0, bound, m - k)),
                           rng.integers(0, bound, k)])
    assert_is_stable_argsort(keys, bound)
