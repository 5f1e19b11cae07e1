"""combine_many (one-shot segment-reduced merge) vs the pairwise fold.

The engines merge per-node partials with ``combine_many``; for every
algorithm on the template's default ``combine`` it concatenates all parts
and runs a single ``msg_merge``.  Because ``msg_merge`` accumulates in
element order, this must be **bit-identical** (not just approximately
equal) to folding ``combine`` pairwise — floats included.  An algorithm
that overrides ``combine`` gets the faithful fold instead.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import MultiSourceSSSP
from repro.core import AlgorithmTemplate, MessageSet
from repro.graph import Graph

from .test_properties import registered_algorithms

N_VERTICES = 12


@st.composite
def small_graphs(draw):
    m = draw(st.integers(min_value=1, max_value=40))
    src = draw(st.lists(st.integers(0, N_VERTICES - 1),
                        min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, N_VERTICES - 1),
                        min_size=m, max_size=m))
    weights = draw(st.lists(
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        min_size=m, max_size=m))
    return Graph.from_edges(N_VERTICES, src, dst, weights)


def make_algorithms():
    """Every submittable algorithm; none overrides ``combine``."""
    algs = registered_algorithms()
    assert all(type(a).combine is AlgorithmTemplate.combine for a in algs)
    return algs


def make_parts(alg, g, n_parts):
    values = alg.init_state(g).values
    m = g.num_edges
    cuts = [m * i // n_parts for i in range(n_parts + 1)]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        msgs = alg.msg_gen(g.src[lo:hi], g.dst[lo:hi],
                           g.weights[lo:hi], values)
        parts.append(alg.msg_merge(g.dst[lo:hi], msgs))
    return parts


@settings(max_examples=40, deadline=None)
@given(g=small_graphs(), n_parts=st.integers(1, 5))
def test_combine_many_is_bit_identical_to_fold(g, n_parts):
    for alg in make_algorithms():
        parts = make_parts(alg, g, n_parts)
        folded = alg.empty_messages()
        for p in parts:
            folded = alg.combine(folded, p)
        fast = alg.combine_many(parts)
        np.testing.assert_array_equal(fast.ids, folded.ids,
                                      err_msg=alg.name)
        np.testing.assert_array_equal(fast.data, folded.data,
                                      err_msg=alg.name)


def test_combine_many_of_empty_and_single():
    for alg in make_algorithms():
        empty = alg.combine_many([])
        assert empty.ids.size == 0
        ms = alg.msg_merge(np.array([1, 2, 1]),
                           alg.msg_gen(np.array([0, 0, 3]),
                                       np.array([1, 2, 1]),
                                       np.array([1.0, 1.0, 2.0]),
                                       alg.init_state(
                                           Graph.from_edges(
                                               N_VERTICES,
                                               [0, 0, 3], [1, 2, 1],
                                               [1.0, 1.0, 2.0])).values))
        only = alg.combine_many([alg.empty_messages(), ms])
        np.testing.assert_array_equal(only.ids, ms.ids)
        np.testing.assert_array_equal(only.data, ms.data)


class DroppingSSSP(MultiSourceSSSP):
    """Overrides combine: the one-shot path must not bypass the
    subclass's (deliberately lossy) combine."""

    def combine(self, a: MessageSet, b: MessageSet) -> MessageSet:
        return b if a.ids.size == 0 or b.ids.size else a


def test_subclass_overriding_combine_keeps_fold_semantics():
    g = Graph.from_edges(N_VERTICES,
                         [0, 1, 2, 3, 4], [1, 2, 3, 4, 5],
                         [1.0] * 5)
    alg = DroppingSSSP(sources=(0, 1))
    parts = make_parts(alg, g, 3)
    folded = alg.empty_messages()
    for p in parts:
        folded = alg.combine(folded, p)
    got = alg.combine_many(parts)
    np.testing.assert_array_equal(got.ids, folded.ids)
    np.testing.assert_array_equal(got.data, folded.data)
    # and the lossy override really did drop something vs a true merge
    true_merge = MultiSourceSSSP(sources=(0, 1)).combine_many(
        make_parts(MultiSourceSSSP(sources=(0, 1)), g, 3))
    assert not np.array_equal(got.ids, true_merge.ids)
