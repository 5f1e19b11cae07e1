"""Mutation batches: apply semantics, round trips, warm-start policy."""

import numpy as np
import pytest

from repro.algorithms import ConnectedComponents, KCore, PageRank
from repro.api import mutate
from repro.errors import GraphError
from repro.graph import Graph, uniform_random
from repro.graph.mutations import (
    MutationBatch,
    MutationLog,
    MutationRecord,
    plan_warm_start,
)


def small_graph():
    # 0 -> 1 -> 2 -> 0 plus a pendant 2 -> 3
    return Graph.from_edges(4, [0, 1, 2, 2], [1, 2, 0, 3],
                            [1.0, 2.0, 3.0, 4.0])


# -- construction / validation ------------------------------------------------


def test_batch_validates_array_lengths():
    with pytest.raises(GraphError, match="add_src has 2"):
        MutationBatch(add_src=[0, 1], add_dst=[2])
    with pytest.raises(GraphError, match="negative"):
        MutationBatch(remove_src=[-1], remove_dst=[0])
    with pytest.raises(GraphError, match="update edges need"):
        MutationBatch(update_src=[0], update_dst=[1])
    with pytest.raises(GraphError, match="add_vertices"):
        MutationBatch(add_vertices=-1)


def test_num_changes_and_emptiness():
    assert MutationBatch().is_empty
    b = MutationBatch(add_src=[0], add_dst=[1], add_vertices=2,
                      remove_vertices=[3])
    assert b.num_changes == 4
    assert not b.is_empty
    assert not MutationBatch(add_src=[0], add_dst=[1]).shrinking
    assert MutationBatch(remove_vertices=[0]).shrinking


def test_fingerprint_is_content_addressed():
    a = MutationBatch(add_src=[0], add_dst=[1])
    b = MutationBatch(add_src=[0], add_dst=[1])
    c = MutationBatch(add_src=[0], add_dst=[2])
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


def test_doc_round_trip_preserves_fingerprint():
    b = MutationBatch(add_src=[0, 3], add_dst=[1, 2],
                      add_weights=[0.5, 2.5],
                      remove_src=[1], remove_dst=[2],
                      update_src=[2], update_dst=[0],
                      update_weights=[9.0],
                      add_vertices=1, remove_vertices=[3])
    back = MutationBatch.from_doc(b.to_doc())
    assert back.fingerprint() == b.fingerprint()


@pytest.mark.parametrize("doc,match", [
    ([1], "must be an object"),
    ({"frobnicate": {}}, "unknown mutation batch field"),
    ({"add": [1]}, "must be an object"),
    ({"add": {"src": [0]}}, "needs src and dst"),
    ({"add": {"src": [0], "dst": [1], "extra": 1}}, "unknown field"),
    ({"remove": {"src": [0], "dst": [1], "weights": [1.0]}},
     "unknown field"),
    ({"add_vertices": "two"}, "must be an integer"),
    ({"add_vertices": True}, "must be an integer"),
    ({"add": {"src": [0.7], "dst": [1]}}, "add_src ids must be integers"),
    ({"remove_vertices": [1.5]}, "remove_vertices ids must be integers"),
    ({"remove": {"src": [-1], "dst": [1]}}, "remove_src contains negative"),
])
def test_from_doc_rejects_malformed(doc, match):
    with pytest.raises(GraphError, match=match):
        MutationBatch.from_doc(doc)


# -- apply semantics ----------------------------------------------------------


def test_apply_is_functional_and_stable_ids():
    g = small_graph()
    batch = MutationBatch(add_src=[3], add_dst=[0], add_vertices=1)
    g2, eff = batch.apply(g)
    assert g.num_edges == 4 and g.num_vertices == 4  # untouched
    assert g2.num_vertices == 5
    assert g2.num_edges == 5
    assert eff.from_vertices == 4 and eff.to_vertices == 5
    assert eff.edges_added == 1 and eff.edges_removed == 0
    # dirty frontier: endpoints of the added edge + the new vertex
    assert set(eff.touched.tolist()) == {0, 3, 4}


def test_apply_removes_vertex_edges_without_renumbering():
    g = small_graph()
    g2, eff = MutationBatch(remove_vertices=[2]).apply(g)
    assert g2.num_vertices == 4              # id kept, vertex isolated
    assert g2.num_edges == 1                 # only 0 -> 1 survives
    assert eff.edges_removed == 3
    assert eff.shrinking and not eff.monotone_safe


def test_apply_update_weights_last_wins():
    g = small_graph()
    batch = MutationBatch(update_src=[0, 0], update_dst=[1, 1],
                          update_weights=[5.0, 0.25])
    g2, eff = batch.apply(g)
    e = int(np.nonzero((g2.src == 0) & (g2.dst == 1))[0][0])
    assert g2.weights[e] == 0.25             # last update to a pair wins
    assert eff.weight_increases == 0
    assert eff.monotone_safe
    assert set(eff.touched.tolist()) == {0, 1}   # a decrease is dirty


def test_apply_weight_increase_poisons_monotone_safety():
    g = small_graph()
    _, eff = MutationBatch(update_src=[0], update_dst=[1],
                           update_weights=[100.0]).apply(g)
    assert eff.weight_increases == 1
    assert not eff.monotone_safe
    assert eff.touched.size == 0             # increases are not frontier


def test_apply_missing_edge_is_corruption():
    g = small_graph()
    with pytest.raises(GraphError, match="remove targets missing"):
        MutationBatch(remove_src=[3], remove_dst=[0]).apply(g)
    with pytest.raises(GraphError, match="update targets missing"):
        MutationBatch(update_src=[3], update_dst=[0],
                      update_weights=[1.0]).apply(g)
    with pytest.raises(GraphError, match="out of range"):
        MutationBatch(add_src=[9], add_dst=[0]).apply(g)
    with pytest.raises(GraphError, match="removes and updates"):
        MutationBatch(remove_src=[0], remove_dst=[1],
                      update_src=[0], update_dst=[1],
                      update_weights=[1.0]).apply(g)


def test_edge_origin_tracks_surviving_edges():
    g = uniform_random(50, 300, seed=3)
    batch = MutationBatch(remove_src=g.src[:5].copy(),
                          remove_dst=g.dst[:5].copy(),
                          add_src=[1, 2], add_dst=[3, 4])
    g2, eff = batch.apply(g)
    assert eff.edge_origin.shape == (g2.num_edges,)
    survived = eff.edge_origin >= 0
    assert int((~survived).sum()) == 2       # exactly the added edges
    # each surviving edge maps back to the identical old edge
    orig = eff.edge_origin[survived]
    assert np.array_equal(g2.src[survived], g.src[orig])
    assert np.array_equal(g2.dst[survived], g.dst[orig])
    assert np.array_equal(g2.weights[survived], g.weights[orig])


def test_pure_update_preserves_edge_order_exactly():
    g = uniform_random(200, 1500, seed=9)
    batch = MutationBatch(update_src=g.src[:15].copy(),
                          update_dst=g.dst[:15].copy(),
                          update_weights=g.weights[:15] * 0.5)
    g2, eff = batch.apply(g)
    assert np.array_equal(g.src, g2.src)
    assert np.array_equal(g.dst, g2.dst)
    assert np.array_equal(eff.edge_origin,
                          np.arange(g.num_edges))


def test_api_mutate_accepts_docs():
    g = small_graph()
    g2, eff = mutate(g, {"add": {"src": [3], "dst": [0]}})
    assert g2.num_edges == 5
    assert eff.edges_added == 1


# -- warm-start policy --------------------------------------------------------


def grown_effect(graph):
    _, eff = MutationBatch(add_src=[0], add_dst=[1]).apply(graph)
    return eff


def shrunk_effect(graph):
    batch = MutationBatch(remove_src=graph.src[:1].copy(),
                          remove_dst=graph.dst[:1].copy())
    _, eff = batch.apply(graph)
    return eff


def test_plan_fixpoint_seeds_every_vertex():
    g = small_graph()
    old = np.full(4, 0.5)
    warm = plan_warm_start(PageRank(), old, [shrunk_effect(g)], g)
    assert warm is not None                  # safe under ANY mutation
    assert warm.iteration == 0
    assert warm.active.all()
    assert np.array_equal(warm.values, old)


def test_plan_frontier_seeds_only_touched():
    g = small_graph()
    old = np.arange(4, dtype=np.float64)
    warm = plan_warm_start(ConnectedComponents(), old,
                           [grown_effect(g)], g)
    assert warm is not None
    assert np.array_equal(warm.values, old)
    assert set(np.nonzero(warm.active)[0].tolist()) == {0, 1}


def test_plan_frontier_refuses_shrinking_chains():
    g = small_graph()
    old = np.zeros(4)
    effects = [grown_effect(g), shrunk_effect(g)]
    assert plan_warm_start(ConnectedComponents(), old, effects, g) is None


def test_plan_refuses_non_incremental_algorithms():
    g = small_graph()
    assert plan_warm_start(KCore(k=2), np.zeros(4),
                           [grown_effect(g)], g) is None


def test_plan_refuses_shape_mismatch():
    g = small_graph()
    # a 2-D multi-source seed cannot feed a 1-D value state
    assert plan_warm_start(PageRank(), np.zeros((4, 2)),
                           [grown_effect(g)], g) is None


def test_plan_pads_grown_vertices_with_init_state():
    g = small_graph()
    batch = MutationBatch(add_vertices=2)
    g2, eff = batch.apply(g)
    old = np.full(4, 0.25)
    warm = plan_warm_start(PageRank(), old, [eff], g2)
    assert warm.values.shape == (6,)
    assert np.array_equal(warm.values[:4], old)
    init = PageRank().init_state(g2).values
    assert np.array_equal(warm.values[4:], init[4:])


# -- the mutation log ---------------------------------------------------------


def make_record(bid, from_v, graph):
    batch = MutationBatch(add_src=[0], add_dst=[1])
    _, eff = batch.apply(graph)
    return MutationRecord(batch_id=bid, from_version=from_v,
                          to_version=from_v + 1, batch=batch, effect=eff)


def test_log_dedupes_and_chains():
    g = small_graph()
    log = MutationLog()
    r1, r2 = make_record("a", 1, g), make_record("b", 2, g)
    log.record("g", r1)
    log.record("g", r2)
    assert log.applied("g", "a") is r1
    assert log.applied("g", "zzz") is None
    assert log.effects_between("g", 1, 3) == [r1.effect, r2.effect]
    assert log.effects_between("g", 2, 3) == [r2.effect]
    assert log.effects_between("g", 3, 3) == []
    assert log.effects_between("g", 1, 9) is None    # chain broken
    log.drop("g")
    assert log.applied("g", "a") is None
    assert log.effects_between("g", 1, 2) is None
