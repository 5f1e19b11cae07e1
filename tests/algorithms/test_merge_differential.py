"""``scatter_reduce`` (dense, sort-free) against the merge it replaced.

Until PR 21 every ``msg_merge`` was ``np.unique(dst_ids,
return_inverse=True)`` followed by a 2-D ``ufunc.at`` over the inverse.
That formula lives on here as the oracle: for every algorithm whose
merge is one reduction per destination — the six built-ins and the
example's integer bitwise-OR — the dense merge must return the same ids
and the same payload bytes, on any triplet run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ALGORITHMS
from repro.core import MessageSet, scatter_reduce
from repro.graph import Graph

from .test_properties import registered_algorithms, small_graphs


def _example_algorithm():
    path = (Path(__file__).resolve().parents[2] / "examples"
            / "custom_algorithm.py")
    spec = importlib.util.spec_from_file_location("custom_algorithm", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SeedReachability([0, 3, 5])


#: algorithm name -> the (ufunc, identity, dtype) its merge reduces with
REDUCTIONS = {
    "pagerank": (np.add, 0.0, np.float64),
    "kcore": (np.add, 0.0, np.float64),
    "sssp-bf": (np.minimum, np.inf, np.float64),
    "bfs": (np.minimum, np.inf, np.float64),
    "cc": (np.minimum, np.inf, np.float64),
    "widest-path": (np.maximum, -np.inf, np.float64),
    "seed-reach": (np.bitwise_or, 0, np.int64),
}


def sorted_merge(dst_ids, messages, ufunc, identity):
    """The replaced formula: sort/hash the ids, reduce over the inverse."""
    uniq, inverse = np.unique(dst_ids, return_inverse=True)
    merged = np.full((uniq.size, messages.shape[1]), identity,
                     dtype=messages.dtype)
    ufunc.at(merged, inverse, messages)
    return MessageSet(uniq, merged)


def assert_same(fast, oracle, context):
    assert fast.ids.dtype == oracle.ids.dtype, context
    assert fast.data.dtype == oracle.data.dtype, context
    assert fast.data.shape == oracle.data.shape, context
    np.testing.assert_array_equal(fast.ids, oracle.ids, err_msg=context)
    assert fast.data.tobytes() == oracle.data.tobytes(), context


def reducing_algorithms():
    algs = registered_algorithms() + [_example_algorithm()]
    return [a for a in algs if a.name in REDUCTIONS]


def test_every_registered_algorithm_is_accounted_for():
    """LP merges on a composite (dst, label) key and keeps its own
    merge; everything else submittable reduces per destination."""
    assert set(ALGORITHMS) - set(REDUCTIONS) == {"lp"}


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(), supersteps=st.integers(0, 2),
       lo=st.integers(0, 40), size=st.integers(0, 40))
def test_msg_merge_equals_the_sorted_merge(g, supersteps, lo, size):
    """Any run of triplets — empty, one edge, duplicates — at steps 0-2
    of a real run (distances tie, ranks spread, bitmasks fill in)."""
    for alg in reducing_algorithms():
        ufunc, identity, dtype = REDUCTIONS[alg.name]
        values = alg.init_state(g).values
        for _ in range(supersteps):
            msgs = alg.msg_gen(g.src, g.dst, g.weights, values)
            values, _ = alg.msg_apply(values, alg.msg_merge(g.dst, msgs))
        dst = g.dst[lo:lo + size]
        msgs = alg.msg_gen(g.src[lo:lo + size], dst,
                           g.weights[lo:lo + size], values)
        oracle = sorted_merge(dst, msgs.astype(dtype), ufunc, identity)
        fast = alg.msg_merge(dst, msgs)
        assert fast.data.dtype == np.float64
        assert_same(MessageSet(fast.ids, fast.data.astype(dtype)), oracle,
                    f"{alg.name} [{lo}:{lo + size}] step {supersteps}")


@st.composite
def raw_messages(draw, width):
    """(dst_ids, messages): unsorted ids over a range with gaps (ids are
    multiples of 7 up to 7 000), duplicates likely, floats that make a
    re-ordered sum visible."""
    m = draw(st.integers(min_value=0, max_value=60))
    dst = draw(st.lists(st.integers(0, 1000), min_size=m, max_size=m))
    cells = draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                  width=64),
        min_size=m * width, max_size=m * width))
    return (np.asarray(dst, dtype=np.int64) * 7,
            np.asarray(cells, dtype=np.float64).reshape(m, width))


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("ufunc, identity", [
    (np.add, 0.0), (np.minimum, np.inf), (np.maximum, -np.inf)],
    ids=["add", "minimum", "maximum"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scatter_reduce_floats(width, ufunc, identity, data):
    dst, msgs = data.draw(raw_messages(width))
    assert_same(scatter_reduce(dst, msgs, ufunc, identity),
                sorted_merge(dst, msgs, ufunc, identity),
                f"{ufunc.__name__} width {width}")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scatter_reduce_is_not_float_only(data):
    dst, msgs = data.draw(raw_messages(2))
    bits = msgs.astype(np.int64)
    assert_same(scatter_reduce(dst, bits, np.bitwise_or, 0),
                sorted_merge(dst, bits, np.bitwise_or, 0), "bitwise_or")


def test_scatter_reduce_sums_in_edge_order():
    """The case a pairwise or re-ordered sum gets wrong: the dense merge
    must fold each destination's messages left to right."""
    dst = np.array([5, 2, 5, 5, 2], dtype=np.int64)
    msgs = np.array([[1e16], [1.0], [1.0], [-1e16], [1e-3]])
    merged = scatter_reduce(dst, msgs, np.add, 0.0)
    assert merged.ids.tolist() == [2, 5]
    assert merged.data[:, 0].tolist() == [1.0 + 1e-3,
                                          ((0.0 + 1e16) + 1.0) - 1e16]


def test_scatter_reduce_on_a_real_graph_slice():
    """Widths 1 and 4 over 60k random edges, as the issue sized it."""
    rng = np.random.default_rng(4)
    dst = rng.integers(0, 30_000, 60_000)
    for width in (1, 4):
        msgs = rng.random((dst.size, width))
        for ufunc, identity in ((np.add, 0.0), (np.minimum, np.inf)):
            assert_same(scatter_reduce(dst, msgs, ufunc, identity),
                        sorted_merge(dst, msgs, ufunc, identity),
                        f"{ufunc.__name__} width {width}")


def test_empty_merge_keeps_the_payload_width():
    for alg in reducing_algorithms():
        g = Graph.from_edges(8, [0], [1], [1.0])
        values = alg.init_state(g).values
        none = np.empty(0, dtype=np.int64)
        merged = alg.msg_merge(none, alg.msg_gen(
            none, none, np.empty(0), values))
        empty = alg.empty_messages()
        assert merged.size == 0
        assert merged.ids.dtype == empty.ids.dtype
        assert merged.data.shape == empty.data.shape, alg.name
        assert merged.data.dtype == empty.data.dtype
