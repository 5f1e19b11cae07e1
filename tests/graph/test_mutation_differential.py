"""``MutationBatch.apply`` against ``Graph.from_edges`` of the edited list.

``apply`` builds the new CSR from the surviving edges in their old CSR
order followed by the added edges in batch order, stably sorted by
source — the order ``Graph.from_edges`` gives any edge list.  The twin
here edits a plain Python edge list the way the batch says (drop the
removed pairs and every edge of a removed vertex, reweight updated
pairs with the last update winning, append the adds) and builds the
graph from scratch; the two must be byte-equal array by array, and
``edge_origin`` must name each surviving edge's old id.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import Graph
from repro.graph.mutations import MutationBatch

WEIGHTS = st.floats(0.5, 8.0, allow_nan=False, allow_infinity=False)


@st.composite
def graph_and_batch(draw):
    """A small weighted multigraph and a batch that applies to it."""
    n = draw(st.integers(1, 8))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=16))
    weights = draw(st.lists(WEIGHTS, min_size=len(pairs),
                            max_size=len(pairs)))
    graph = Graph.from_edges(n, [s for s, _ in pairs],
                             [d for _, d in pairs], weights)
    existing = sorted(set(pairs))
    removed = draw(st.lists(st.sampled_from(existing), unique=True,
                            max_size=3)) if existing else []
    kept = [p for p in existing if p not in removed]
    updated = draw(st.lists(st.tuples(st.sampled_from(kept), WEIGHTS),
                            max_size=4)) if kept else []
    grow = draw(st.integers(0, 2))
    new_ends = st.integers(0, n + grow - 1)
    added = draw(st.lists(st.tuples(new_ends, new_ends, WEIGHTS),
                          max_size=4))
    gone = draw(st.lists(ends, unique=True, max_size=2))
    batch = MutationBatch(
        add_src=[s for s, _, _ in added], add_dst=[d for _, d, _ in added],
        add_weights=[w for _, _, w in added],
        remove_src=[s for s, _ in removed], remove_dst=[d for _, d in removed],
        update_src=[p[0] for p, _ in updated],
        update_dst=[p[1] for p, _ in updated],
        update_weights=[w for _, w in updated],
        add_vertices=grow, remove_vertices=gone)
    return graph, batch


def edited(graph, batch):
    """The batch applied to a plain edge list, rebuilt from scratch."""
    removed = set(zip(batch.remove_src.tolist(), batch.remove_dst.tolist()))
    gone = set(batch.remove_vertices.tolist())
    reweighted = dict(zip(zip(batch.update_src.tolist(),
                              batch.update_dst.tolist()),
                          batch.update_weights.tolist()))
    edges = [(s, d, reweighted.get((s, d), w))
             for s, d, w in zip(graph.src.tolist(), graph.dst.tolist(),
                                graph.weights.tolist())
             if (s, d) not in removed and s not in gone and d not in gone]
    edges += zip(batch.add_src.tolist(), batch.add_dst.tolist(),
                 batch.add_weights.tolist())
    return Graph.from_edges(graph.num_vertices + batch.add_vertices,
                            [e[0] for e in edges], [e[1] for e in edges],
                            [e[2] for e in edges])


@settings(max_examples=100, deadline=None)
@given(case=graph_and_batch())
def test_apply_equals_the_from_scratch_build(case):
    graph, batch = case
    applied, effect = batch.apply(graph)
    twin = edited(graph, batch)
    assert applied.num_vertices == twin.num_vertices
    for name in ("indptr", "src", "dst", "weights"):
        mine, theirs = getattr(applied, name), getattr(twin, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name
    # provenance: a surviving edge names its id in the old graph
    old = effect.edge_origin >= 0
    origin = effect.edge_origin[old]
    assert np.array_equal(applied.src[old], graph.src[origin])
    assert np.array_equal(applied.dst[old], graph.dst[origin])
    assert int(np.count_nonzero(~old)) == batch.add_src.size


@st.composite
def graph_and_any_batch(draw):
    """A small multigraph (self-loops and parallel edges likely) and a
    batch whose removes and updates name any in-range pair: present,
    missing, repeated, or both removed and updated."""
    n = draw(st.integers(1, 6))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=12))
    graph = Graph.from_edges(n, [s for s, _ in pairs],
                             [d for _, d in pairs])
    pair = st.tuples(ends, ends)
    if pairs:
        pair = st.one_of(st.sampled_from(pairs), pair)
    removed = draw(st.lists(pair, max_size=4))
    updated = draw(st.lists(st.tuples(pair, WEIGHTS), max_size=4))
    batch = MutationBatch(
        remove_src=[s for s, _ in removed], remove_dst=[d for _, d in removed],
        update_src=[p[0] for p, _ in updated],
        update_dst=[p[1] for p, _ in updated],
        update_weights=[w for _, w in updated])
    return graph, batch


def isin_refusal(graph, batch):
    """The refusal ``np.isin`` membership gives ``batch`` on ``graph``
    (``None``: it applies): the first missing remove in batch order, a
    pair both removed and updated, then the smallest missing update."""
    span = max(graph.num_vertices, 1)
    edge_keys = graph.src * span + graph.dst
    rkeys = batch.remove_src * span + batch.remove_dst
    ukeys = batch.update_src * span + batch.update_dst
    missing = ~np.isin(rkeys, edge_keys)
    if missing.any():
        i = int(np.nonzero(missing)[0][0])
        return (f"remove targets missing edge ({int(batch.remove_src[i])}, "
                f"{int(batch.remove_dst[i])})")
    if ukeys.size and np.isin(ukeys, rkeys).any():
        return "batch both removes and updates the same edge"
    uniq = np.unique(ukeys)
    missing = ~np.isin(uniq, edge_keys)
    if missing.any():
        k = int(uniq[np.nonzero(missing)[0][0]])
        return f"update targets missing edge ({k // span}, {k % span})"
    return None


@settings(max_examples=200, deadline=None)
@given(case=graph_and_any_batch())
def test_apply_refuses_what_isin_refuses(case):
    """``apply``'s sorted-key membership against ``np.isin``: the same
    batches refused with the same edge named, and the rest applied as
    the from-scratch build applies them."""
    graph, batch = case
    refusal = isin_refusal(graph, batch)
    try:
        applied, _ = batch.apply(graph)
    except GraphError as exc:
        assert str(exc) == refusal
        return
    assert refusal is None
    twin = edited(graph, batch)
    for name in ("indptr", "src", "dst", "weights"):
        assert getattr(applied, name).tobytes() == \
            getattr(twin, name).tobytes(), name
