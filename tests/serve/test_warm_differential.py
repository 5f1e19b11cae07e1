"""Warm starts against cold starts, over random mutation batches.

A mutation harvests the cached fixpoints of the old version as seeds;
the next identical query on the new version resumes from its seed over
the dirty frontier instead of iteration 0 (``plan_warm_start``).  The
cold twin is a fresh service loading the mutated graph.  The rules:

* ``plan_warm_start`` refuses a frontier algorithm (cc, sssp-bf) any
  batch that removes an edge or a vertex or raises a weight;
* through the service, cc, sssp-bf and bfs (which declares no policy,
  so it always starts cold) end bit-identical to the cold twin under
  any batch: warm when the batch only grows the graph, cold otherwise;
* PageRank, warm under every batch whose seed converged, is
  bit-identical to its cold twin under pure reweights (it never reads
  edge weights); a seed run stopped by its iteration cap is no
  fixpoint, so it is never harvested and the re-run starts cold.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.algorithms import ALGORITHMS
from repro.api import ClusterSpec, GraphService, JobSpec
from repro.graph import Graph
from repro.graph.mutations import MutationBatch, plan_warm_start

SPEC = ClusterSpec(nodes=2, gpus_per_node=1)
WEIGHTS = st.floats(0.5, 8.0, allow_nan=False, allow_infinity=False)
#: weight factors: below 1 lowers a weight, above 1 may raise one
FACTORS = st.floats(0.1, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def mutated(draw, shrink=True, grow=True):
    """A small weighted graph and a batch for it: adds (``grow``),
    reweights, and removals (``shrink``), each possibly empty."""
    n = draw(st.integers(3, 10))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=20))
    weights = draw(st.lists(WEIGHTS, min_size=len(pairs),
                            max_size=len(pairs)))
    graph = Graph.from_edges(n, [s for s, _ in pairs],
                             [d for _, d in pairs], weights)
    existing = sorted(set(pairs))
    removed = draw(st.lists(st.sampled_from(existing), unique=True,
                            max_size=2)) if shrink else []
    kept = [p for p in existing if p not in removed]
    reweighted = draw(st.lists(st.tuples(st.sampled_from(kept), FACTORS),
                               unique_by=lambda t: t[0], max_size=3)) \
        if kept else []
    lightest = {}
    for pair, w in zip(pairs, weights):
        lightest[pair] = min(w, lightest.get(pair, w))
    more = draw(st.integers(0, 2)) if grow else 0
    new_ends = st.integers(0, n + more - 1)
    added = draw(st.lists(st.tuples(new_ends, new_ends, WEIGHTS),
                          max_size=3)) if grow else []
    gone = draw(st.lists(ends, unique=True, max_size=1)) if shrink else []
    batch = MutationBatch(
        add_src=[s for s, _, _ in added], add_dst=[d for _, d, _ in added],
        add_weights=[w for _, _, w in added],
        remove_src=[s for s, _ in removed], remove_dst=[d for _, d in removed],
        update_src=[p[0] for p, _ in reweighted],
        update_dst=[p[1] for p, _ in reweighted],
        update_weights=[lightest[p] * f for p, f in reweighted],
        add_vertices=more, remove_vertices=gone)
    return graph, batch


def only_grows(graph, batch):
    """No removal, and no update above any copy of its pair's weight."""
    if batch.remove_src.size or batch.remove_vertices.size:
        return False
    for s, d, w in zip(batch.update_src, batch.update_dst,
                       batch.update_weights):
        copies = graph.weights[(graph.src == s) & (graph.dst == d)]
        if (w > copies).any():
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(case=mutated())
def test_frontier_warm_start_refused_unless_the_batch_only_grows(case):
    graph, batch = case
    new_graph, effect = batch.apply(graph)
    for name in ("cc", "sssp-bf"):
        algorithm = ALGORITHMS[name]()
        seed = algorithm.init_state(graph).values
        plan = plan_warm_start(algorithm, seed, [effect], new_graph)
        assert (plan is not None) == only_grows(graph, batch), name


def served(graph, specs, batch=None):
    """Run ``specs`` on ``graph``; with a ``batch``, mutate after and
    run them again.  Returns the last round's jobs."""
    svc = GraphService(SPEC)
    svc.load_graph("g", graph)
    jobs = [svc.submit(spec) for spec in specs]
    svc.run()
    if batch is not None:
        svc.mutate("g", batch)
        jobs = [svc.submit(spec) for spec in specs]
        svc.run()
    return svc, jobs


@settings(max_examples=10, deadline=None)
@given(case=mutated())
def test_warm_service_ends_on_the_cold_bits(case):
    graph, batch = case
    assume(not batch.is_empty)
    specs = [JobSpec(graph="g", algorithm=name)
             for name in ("cc", "sssp-bf", "bfs")]
    svc, warm = served(graph, specs, batch)
    _, cold = served(svc.store.get("g").graph, specs)
    grows = only_grows(graph, batch)
    assert [job.warm_started for job in warm] == [grows, grows, False]
    for w, c in zip(warm, cold):
        assert w.values.tobytes() == c.values.tobytes(), w.spec.algorithm


@settings(max_examples=4, deadline=None)
@given(case=mutated(shrink=False, grow=False))
# at tolerance 0.0 PageRank never converges in floats on this graph: the
# seed run stops at the cap, a last-bit cycle away from any fixpoint
@example(case=(Graph.from_edges(3, [0, 0, 0, 1, 2, 2], [0, 1, 0, 2, 0, 0],
                                [2.0] * 6),
               MutationBatch(update_src=[0], update_dst=[0],
                             update_weights=[1.0])))
def test_pagerank_warm_start_under_reweights_is_bit_identical(case):
    graph, batch = case
    assume(not batch.is_empty)
    specs = [JobSpec(graph="g", algorithm="pagerank", max_iterations=500,
                     params={"tolerance": 0.0})]
    svc, (warm,) = served(graph, specs, batch)
    seed = svc.jobs()[0]          # the pre-mutation run whose answer seeds
    _, (cold,) = served(svc.store.get("g").graph, specs)
    assert warm.warm_started == seed.result.converged
    assert warm.values.tobytes() == cold.values.tobytes()
