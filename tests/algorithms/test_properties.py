"""Property-based tests on the algorithm-template invariants.

The middleware depends on three properties of every algorithm:

1. **combine is associative and commutative** — partials may be merged
   in any grouping/order across nodes;
2. **split equivalence** — processing edges in arbitrary splits and
   combining partials gives exactly the monolithic result;
3. **merged_size is the merge's size** — the pipeline prices each block
   by ``merged_size`` instead of running the block-local merge, so it
   must equal ``msg_merge(...).size`` on any run of triplets.

These are what make the distributed execution provably equal to the
single-machine reference, in values and in simulated cost.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    ALGORITHMS,
    BFS,
    ConnectedComponents,
    LabelPropagation,
    MultiSourceSSSP,
    PageRank,
)
from repro.graph import Graph

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
    return [
        MultiSourceSSSP(sources=(0, 1)),
        PageRank(),
        LabelPropagation(),
        BFS(source=0),
        ConnectedComponents(),
    ]


def registered_algorithms():
    """One instance of every submittable algorithm; SSSP-BF at the
    paper's width 4, LP with its composite (dst, label) merge key."""
    params = {"sssp-bf": dict(sources=(0, 1, 2, 3)), "kcore": dict(k=2)}
    return [cls(**params.get(name, {}))
            for name, cls in sorted(ALGORITHMS.items())]


def canonical(alg, ms):
    """Order-independent canonical form of a message set."""
    rows = sorted(
        (int(i),) + tuple(round(float(x), 9) for x in row)
        for i, row in zip(ms.ids, np.atleast_2d(ms.data))
    )
    return rows


def gen_and_merge(alg, g, values, lo, hi):
    msgs = alg.msg_gen(g.src[lo:hi], g.dst[lo:hi], g.weights[lo:hi], values)
    return alg.msg_merge(g.dst[lo:hi], msgs)


@settings(max_examples=40, deadline=None)
@given(g=small_graphs(), cut=st.integers(0, 40), seed=st.integers(0, 100))
def test_block_split_equals_whole(g, cut, seed):
    """Partials over any 2-way edge split combine to the monolithic merge."""
    for alg in make_algorithms():
        values = alg.init_state(g).values
        m = g.num_edges
        k = min(cut, m)
        whole = gen_and_merge(alg, g, values, 0, m)
        combined = alg.combine(gen_and_merge(alg, g, values, 0, k),
                               gen_and_merge(alg, g, values, k, m))
        assert canonical(alg, whole) == canonical(alg, combined), alg.name


@settings(max_examples=40, deadline=None)
@given(g=small_graphs(), order=st.permutations([0, 1, 2]))
def test_combine_grouping_invariance(g, order):
    """(a+b)+c == a+(b+c) == any permutation, for 3-way splits."""
    for alg in make_algorithms():
        values = alg.init_state(g).values
        m = g.num_edges
        cuts = [0, m // 3, 2 * m // 3, m]
        parts = [gen_and_merge(alg, g, values, cuts[i], cuts[i + 1])
                 for i in range(3)]
        left = alg.combine(alg.combine(parts[0], parts[1]), parts[2])
        permuted = [parts[i] for i in order]
        right = alg.combine(permuted[0],
                            alg.combine(permuted[1], permuted[2]))
        assert canonical(alg, left) == canonical(alg, right), alg.name


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(), supersteps=st.integers(0, 2),
       lo=st.integers(0, 40), size=st.integers(0, 40))
def test_merged_size_is_the_block_local_merge_size(g, supersteps, lo, size):
    """Any block of triplets, at any point of a run (labels coalesce and
    distances tie after a superstep or two)."""
    for alg in registered_algorithms():
        values = alg.init_state(g).values
        for _ in range(supersteps):
            merged = gen_and_merge(alg, g, values, 0, g.num_edges)
            values, _ = alg.msg_apply(values, merged)
        dst = g.dst[lo:lo + size]
        msgs = alg.msg_gen(g.src[lo:lo + size], dst,
                           g.weights[lo:lo + size], values)
        assert alg.merged_size(dst, msgs) == alg.msg_merge(dst, msgs).size, \
            alg.name


@settings(max_examples=30, deadline=None)
@given(g=small_graphs())
def test_apply_is_pure(g):
    """msg_apply never mutates its inputs."""
    for alg in make_algorithms():
        values = alg.init_state(g).values
        msgs = alg.msg_gen(g.src, g.dst, g.weights, values)
        merged = alg.msg_merge(g.dst, msgs)
        values_before = values.copy()
        ids_before = merged.ids.copy()
        data_before = merged.data.copy()
        alg.msg_apply(values, merged)
        assert np.array_equal(values, values_before), alg.name
        assert np.array_equal(merged.ids, ids_before), alg.name
        assert np.array_equal(merged.data, data_before), alg.name


@settings(max_examples=30, deadline=None)
@given(g=small_graphs())
def test_empty_messageset_is_identity_for_combine(g):
    for alg in make_algorithms():
        values = alg.init_state(g).values
        ms = gen_and_merge(alg, g, values, 0, g.num_edges)
        empty = alg.empty_messages()
        assert canonical(alg, alg.combine(ms, empty)) == canonical(alg, ms)
        assert canonical(alg, alg.combine(empty, ms)) == canonical(alg, ms)


@pytest.mark.parametrize(
    "alg", [a for a in registered_algorithms() if a.name != "pagerank"],
    ids=lambda alg: alg.name)
def test_apply_of_no_messages_changes_nothing(alg):
    """A block that received no messages keeps its values: an equal
    copy, not the caller's array, and no changed ids.  PageRank is the
    exception: its apply recomputes every rank from the teleport term."""
    g = Graph.from_edges(N_VERTICES, [0, 1], [1, 2], [1.0, 2.0])
    values = alg.init_state(g).values
    new_values, changed = alg.msg_apply(values, alg.empty_messages())
    np.testing.assert_array_equal(new_values, values)
    assert new_values is not values
    assert changed.size == 0 and changed.dtype == np.int64


@settings(max_examples=25, deadline=None)
@given(g=small_graphs())
def test_sssp_triangle_inequality_at_fixpoint(g):
    """At the Bellman-Ford fixed point, no edge can still relax."""
    alg = MultiSourceSSSP(sources=(0,))
    dist = alg.reference(g)
    lhs = dist[g.dst, 0]
    rhs = dist[g.src, 0] + g.weights
    assert np.all(lhs <= rhs + 1e-9)


@settings(max_examples=25, deadline=None)
@given(g=small_graphs())
def test_pagerank_total_mass_bounded(g):
    """Ranks stay positive and bounded by n (no mass creation)."""
    ranks = PageRank().reference(g, iterations=10)
    assert np.all(ranks >= 0.15 - 1e-12)
    assert ranks.sum() <= g.num_vertices + 1e-9


@settings(max_examples=25, deadline=None)
@given(g=small_graphs())
def test_cc_labels_are_component_minima(g):
    """CC on the symmetrized graph labels each vertex with a component
    member <= its own id, and endpoints of every edge agree."""
    u = g.to_undirected()
    labels = ConnectedComponents().reference(u)
    assert np.all(labels <= np.arange(u.num_vertices))
    assert np.all(labels[u.src] == labels[u.dst])
