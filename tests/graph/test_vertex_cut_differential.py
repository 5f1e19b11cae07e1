"""``greedy_vertex_cut`` against the per-edge loop it re-expresses.

The placement loop scores only the nodes that can win (bitmask
arithmetic while every node sits at the least or the greatest scaled
load, the endpoints' replicas plus one least-loaded node otherwise).
The loop that scored every node on every edge lives on in
:mod:`.reference_partition`; on any multigraph, node count and share
vector both must place every edge on the same node, elect the same
masters and assemble byte-identical parts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, greedy_vertex_cut

from .reference_partition import reference_greedy_vertex_cut
from .test_partition import _parts_digest


def _owners(pg):
    owner = np.full(pg.graph.num_edges, -1, dtype=np.int64)
    for part in pg.parts:
        owner[part.edge_ids] = part.node_id
    return owner


@st.composite
def multigraphs(draw):
    """Small multigraphs: parallel edges, self-loops and isolated
    vertices all occur, and m = 0 does."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 160))
    # one byte string for both endpoint lists: far cheaper to draw
    # than 2m separate integers, and it still shrinks toward vertex 0
    ends = np.frombuffer(draw(st.binary(min_size=2 * m, max_size=2 * m)),
                         dtype=np.uint8) % n
    return Graph.from_edges(n, ends[:m], ends[m:])


@st.composite
def share_vectors(draw, k):
    """None, equal, random, or random with zeros (capacity 1e-12)."""
    kind = draw(st.sampled_from(["none", "equal", "random", "zeros"]))
    if kind == "none":
        return None
    if kind == "equal":
        return [draw(st.floats(0.01, 100.0))] * k
    shares = draw(st.lists(st.floats(0.01, 100.0), min_size=k, max_size=k))
    if kind == "zeros":
        zeros = draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
        shares = [0.0 if p in zeros else s for p, s in enumerate(shares)]
    return shares


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_vertex_cut_equals_the_every_node_loop(data):
    graph = data.draw(multigraphs())
    k = data.draw(st.integers(1, 8))
    shares = data.draw(share_vectors(k))
    fast = greedy_vertex_cut(graph, k, shares=shares)
    oracle = reference_greedy_vertex_cut(graph, k, shares=shares)
    np.testing.assert_array_equal(_owners(fast), _owners(oracle))
    np.testing.assert_array_equal(fast.master_of, oracle.master_of)
    assert _parts_digest(fast) == _parts_digest(oracle)


@pytest.mark.parametrize("shares", [None, [2, 2, 2], [0.5], [7.0] * 8],
                         ids=["none-3", "equal-3", "k1", "equal-8"])
def test_vertex_cut_equals_the_every_node_loop_on_equal_shares(shares):
    """Equal capacities take the round-robin loop; self-loops and
    parallel edges included."""
    rng = np.random.default_rng(1)
    n, m = 300, 4000
    src = rng.integers(0, n, m) ** 2 // n
    dst = np.where(rng.random(m) < 0.1, src, rng.integers(0, n, m))
    graph = Graph.from_edges(n, src, dst)
    k = 3 if shares is None else len(shares)
    fast = greedy_vertex_cut(graph, k, shares=shares)
    oracle = reference_greedy_vertex_cut(graph, k, shares=shares)
    np.testing.assert_array_equal(_owners(fast), _owners(oracle))
    assert _parts_digest(fast) == _parts_digest(oracle)


def test_vertex_cut_equals_the_every_node_loop_on_skewed_shares():
    """A denser graph, long enough for unequal shares to spread the
    scaled loads over many levels, where the scoring branch carries the
    placement."""
    rng = np.random.default_rng(0)
    n, m = 200, 6000
    graph = Graph.from_edges(n, rng.integers(0, n, m) ** 2 // n,
                             rng.integers(0, n, m))
    for shares in ([0.05, 0.4, 0.1, 0.3, 0.15],
                   [1.0, 0.0, 2.0, 0.5, 3.0, 0.25, 0.0, 1.5]):
        fast = greedy_vertex_cut(graph, len(shares), shares=shares)
        oracle = reference_greedy_vertex_cut(graph, len(shares),
                                             shares=shares)
        assert _parts_digest(fast) == _parts_digest(oracle)
