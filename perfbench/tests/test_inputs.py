"""Seed-derived inputs repeat, and the numpy references agree with
slow, obviously-right implementations."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import perfbench
from perfbench import inputs, reference

perfbench.ensure_repro()


@pytest.fixture(scope="module")
def graph():
    return inputs.make_graph(11, "g0", 300, 1500)


def test_same_seed_same_inputs(graph):
    again = inputs.make_graph(11, "g0", 300, 1500)
    assert np.array_equal(graph.src, again.src)
    assert np.array_equal(graph.weights, again.weights)
    other = inputs.make_graph(12, "g0", 300, 1500)
    cat = inputs.catalogue({"g0": graph, "g1": other})
    assert len(cat) == 48 and len({q.qid for q in cat}) == 48
    assert np.array_equal(graph.src, other.src)     # topology is shape
    assert not np.array_equal(graph.weights, other.weights)
    draws = [list(itertools.islice(inputs.zipf_draws(48, 1.1, c), 50))
             for c in (0, 0, 1)]
    assert draws[0] == draws[1] != draws[2]


def test_churn_kinds_and_batches(graph):
    kinds = [inputs.CHURN_KINDS[c % 5] for c in range(10)]
    assert kinds.count("add") == 6 and kinds.count("remove") == 2
    from repro.api import mutate
    for cycle in range(5):
        kind, batch = inputs.churn_batch(graph, 11, cycle, 0.01)
        again = inputs.churn_batch(graph, 11, cycle, 0.01)[1]
        assert batch.fingerprint() == again.fingerprint()
        new_graph, effect = mutate(graph, batch)
        assert effect.monotone_safe == (kind != "remove")
        if kind == "decrease":
            assert effect.weight_increases == 0 and effect.touched.size


def _slow_relax(graph, start, step):
    values = start.copy()
    for _ in range(graph.num_vertices):
        changed = False
        for e in range(graph.num_edges):
            cand = values[graph.src[e]] + step(e)
            if cand < values[graph.dst[e]]:
                values[graph.dst[e]] = cand
                changed = True
        if not changed:
            break
    return values


def test_references_match_edge_by_edge_relaxation(graph):
    n = graph.num_vertices
    source = inputs.hubs(graph, 1, "t")[0]
    start = np.full(n, np.inf)
    start[source] = 0.0
    assert np.array_equal(reference.bfs(graph, source),
                          _slow_relax(graph, start, lambda e: 1.0))
    assert np.array_equal(
        reference.sssp(graph, [source])[:, 0],
        _slow_relax(graph, start, lambda e: graph.weights[e]))
    assert np.array_equal(
        reference.cc(graph),
        _slow_relax(graph, np.arange(n, dtype=float), lambda e: 0.0))


def test_pagerank_reference_is_the_power_iteration(graph):
    n = graph.num_vertices
    outdeg = np.bincount(graph.src, minlength=n)
    values = np.ones(n)
    for _ in range(3):
        incoming = np.zeros(n)
        for e in range(graph.num_edges):
            incoming[graph.dst[e]] += values[graph.src[e]] / outdeg[graph.src[e]]
        values = 0.15 + 0.85 * incoming
    assert np.allclose(reference.pagerank(graph, 3), values, atol=1e-12)
