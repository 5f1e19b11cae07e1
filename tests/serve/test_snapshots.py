"""Versioned snapshots + streaming mutations through the service.

The isolation property under test: a job is pinned to the store
version current at submit time, and its results are bit-identical
whether or not mutations land while it runs.  Plus the machinery
around it — copy-on-write retention, snapshot GC, exactly-once
mutation replay, warm starts, cache invalidation, and wholesale
replace.
"""


import numpy as np
import pytest

from repro.api import ClusterSpec
from repro.engines import PowerGraphEngine
from repro.errors import ServeError
from repro.graph import Graph, uniform_random
from repro.graph.mutations import MutationBatch
from repro.serve import GraphService, GraphSnapshot, GraphStore, JobSpec
from repro.serve.journal import read_journal

SPEC = ClusterSpec(nodes=2, gpus_per_node=1)
CLUSTER = SPEC.build()


def ring(n, name="ring"):
    src = np.arange(n, dtype=np.int64)
    return Graph.from_edges(n, src, (src + 1) % n, name=name)


def add_edge_batch(s, d):
    return MutationBatch(add_src=[s], add_dst=[d])


@pytest.fixture
def store():
    s = GraphStore()
    s.load("g", ring(16))
    return s


# -- snapshot lifecycle -------------------------------------------------------


def test_snapshot_pins_and_releases(store):
    snap = store.snapshot("g")
    assert isinstance(snap, GraphSnapshot)
    assert snap.version == 1 and not snap.released
    assert store.pinned_versions("g") == {1}
    snap.release()
    assert snap.released
    assert store.pinned_versions("g") == set()
    snap.release()                             # idempotent
    assert store.stats()["snapshots"] == 1


def test_snapshot_is_a_context_manager(store):
    with store.snapshot("g") as snap:
        assert store.pinned_versions("g") == {snap.version}
    assert snap.released


def test_pinned_version_survives_mutation_cow(store):
    snap = store.snapshot("g")
    store.mutate("g", add_edge_batch(0, 8))
    assert store.get("g").version == 2         # new submits see v2
    assert snap.graph.num_edges == 16          # the pin still sees v1
    assert store.stats()["retained_versions"] == 1
    snap.release()                             # last pin dropped -> GC
    assert store.stats()["retained_versions"] == 0
    with pytest.raises(ServeError, match="no longer retained"):
        store.snapshot("g", version=1)


def test_unpinned_old_version_is_not_retained(store):
    store.mutate("g", add_edge_batch(0, 8))
    assert store.stats()["retained_versions"] == 0


def test_released_snapshot_refuses_engine_builds(store):
    snap = store.snapshot("g")
    snap.release()
    with pytest.raises(ServeError, match="released"):
        snap.build_engine(PowerGraphEngine, CLUSTER)


def test_store_mutate_is_idempotent_by_batch_id(store):
    batch = add_edge_batch(0, 8)
    rec = store.mutate("g", batch, "bid-1")
    again = store.mutate("g", batch, "bid-1")
    assert again is rec
    assert store.get("g").version == 2         # applied exactly once
    assert store.stats()["mutations"] == 1


def test_partition_delta_avoids_full_repartition(store):
    store.build_engine("g", PowerGraphEngine, CLUSTER)
    assert store.stats()["partition_builds"] == 1
    snap = store.snapshot("g")                 # keeps v1's partition alive
    store.mutate("g", add_edge_batch(0, 8))
    assert store.stats()["partition_deltas"] == 1
    store.build_engine("g", PowerGraphEngine, CLUSTER)   # v2: delta reused
    store.build_engine("g", PowerGraphEngine, CLUSTER,
                       version=snap.version)             # v1: memo reused
    assert store.stats()["partition_builds"] == 1
    assert store.stats()["partition_hits"] == 2


def test_partition_delta_preserves_float_summation_order():
    # the money property: a delta-carried partition computes PageRank
    # bit-identically to a from-scratch build of the mutated graph,
    # because surviving edges keep their placement
    from repro.algorithms import PageRank
    g = uniform_random(400, 3200, seed=5)
    batch = MutationBatch(update_src=g.src[:32].copy(),
                          update_dst=g.dst[:32].copy(),
                          update_weights=g.weights[:32] * 0.5)
    store = GraphStore()
    store.load("g", g)
    store.build_engine("g", PowerGraphEngine, CLUSTER)   # memoize v1
    store.mutate("g", batch)
    delta_eng = store.build_engine("g", PowerGraphEngine, CLUSTER)
    fresh = GraphStore()
    fresh.load("g", store.get("g").graph)
    fresh_eng = fresh.build_engine("g", PowerGraphEngine, CLUSTER)
    alg = PageRank(tolerance=0.0)
    r_delta = delta_eng.run(alg, max_iterations=500)
    r_fresh = fresh_eng.run(alg, max_iterations=500)
    assert store.stats()["partition_deltas"] == 1
    assert np.array_equal(r_delta.values, r_fresh.values)


def test_partition_delta_from_zero_edge_graph():
    empty = Graph.from_edges(8, np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=np.int64), name="empty")
    store = GraphStore()
    store.load("g", empty)
    store.build_engine("g", PowerGraphEngine, CLUSTER)   # memoize v1
    store.mutate("g", add_edge_batch(0, 1))    # every edge is new
    assert store.stats()["partition_deltas"] == 1
    store.build_engine("g", PowerGraphEngine, CLUSTER)   # v2 delta reused
    assert store.stats()["partition_hits"] == 1
    assert store.get("g").graph.num_edges == 1


# -- wholesale replace --------------------------------------------------------


def test_replace_severs_the_mutation_chain(store):
    g2 = ring(16, name="ring-v2")
    entry = store.replace("g", g2)
    assert entry.version == 2
    assert store.get("g").graph is g2
    # a wholesale replace severs the mutation chain
    assert store.effects_between("g", 1, 2) is None


# -- service-level mutation + isolation ---------------------------------------


def pr_spec(**kw):
    kw.setdefault("graph", "g")
    kw.setdefault("algorithm", "pagerank")
    kw.setdefault("max_iterations", 12)
    kw.setdefault("tenant", "t0")
    return JobSpec(**kw)


def make_service(graph=None, **kw):
    svc = GraphService(SPEC, cache_entries=8, **kw)
    svc.load_graph("g", graph if graph is not None else ring(16))
    return svc


def test_submit_pins_snapshot_and_terminal_releases():
    svc = make_service()
    job = svc.submit(pr_spec())
    assert job.snapshot_version == 1
    svc.run()
    assert job.state == "done"
    assert job.snapshot.released
    assert svc.store.pinned_versions("g") == set()


def test_mutation_midrun_leaves_pinned_job_bit_identical():
    # baseline: the same query on an unmutated service
    base = make_service()
    base_job = base.submit(pr_spec())
    base.run()

    svc = make_service()
    job = svc.submit(pr_spec())
    svc.step()                                 # job is mid-flight
    svc.mutate("g", add_edge_batch(0, 8))      # world changes under it
    svc.step()
    svc.mutate("g", add_edge_batch(1, 9))      # ...twice
    svc.run()
    assert job.state == "done"
    assert job.snapshot_version == 1           # stayed pinned to v1
    assert svc.store.get("g").version == 3
    assert np.array_equal(job.values, base_job.values)

    # a submit after the mutations sees the new world
    after = svc.submit(pr_spec())
    svc.run()
    assert after.snapshot_version == 3
    assert not np.array_equal(after.values, base_job.values)


def test_reload_midrun_leaves_pinned_job_bit_identical():
    """load_graph() on a resident key is a replace(): it does not wait
    for (or refuse because of) running jobs."""
    base = make_service()
    base_job = base.submit(pr_spec())
    base.run()

    svc = make_service()
    job = svc.submit(pr_spec())
    svc.step()                                 # job is mid-flight
    entry = svc.load_graph("g", ring(24))      # wholesale reload under it
    assert entry.version == 2
    svc.run()
    assert job.state == "done" and job.snapshot_version == 1
    assert np.array_equal(job.values, base_job.values)
    assert svc.store.pinned_versions("g") == set()

    after = svc.submit(pr_spec())
    svc.run()
    assert after.snapshot_version == 2 and after.values.shape[0] == 24


def test_service_mutate_validates():
    svc = make_service()
    with pytest.raises(ServeError, match="unknown graph"):
        svc.mutate("nope", add_edge_batch(0, 1))
    with pytest.raises(ServeError, match="empty mutation"):
        svc.mutate("g", MutationBatch())
    summary = svc.mutate("g", {"add": {"src": [0], "dst": [8]}})
    assert summary["version"] == 2 and not summary["deduped"]
    assert svc.metrics()["mutations"] == 1


def test_service_mutate_dedupes_by_idempotency_key():
    svc = make_service()
    s1 = svc.mutate("g", add_edge_batch(0, 8), idempotency_key="k1")
    s2 = svc.mutate("g", add_edge_batch(0, 8), idempotency_key="k1")
    assert not s1["deduped"] and s2["deduped"]
    assert s2["version"] == s1["version"] == 2
    assert svc.store.get("g").version == 2
    assert svc.metrics()["deduped_mutations"] == 1


def test_mutation_invalidates_cache_for_stale_versions():
    svc = make_service()
    svc.submit(pr_spec())
    svc.run()
    assert len(svc.cache) == 1
    evictions_before = svc.cache.stats()["evictions"]
    svc.mutate("g", add_edge_batch(0, 8))
    assert len(svc.cache) == 0                 # stale entry really gone
    assert svc.cache.stats()["invalidations"] == 1
    # not an eviction
    assert svc.cache.stats()["evictions"] == evictions_before
    # the fresh version recomputes, it does not hit the stale answer
    svc.submit(pr_spec())
    svc.run()
    assert svc.cache.stats()["hits"] == 0
    assert len(svc.cache) == 1


def test_warm_start_resumes_from_previous_fixpoint():
    svc = make_service(uniform_random(500, 4000, seed=2))
    spec = pr_spec(max_iterations=2000,
                   params={"tolerance": 0.0})
    first = svc.submit(spec)
    svc.run()
    cold_steps = len(first.result.stats)
    svc.mutate("g", add_edge_batch(0, 8))
    second = svc.submit(spec)
    svc.run()
    assert second.warm_started
    assert svc.metrics()["warm_starts"] == 1
    assert len(second.result.stats) < cold_steps
    # a structural change perturbs the float update map, so warm and
    # cold trajectories agree to round-off (bit-identity is the pure
    # reweight / monotone min-plus guarantee, tested below)
    cold = make_service(svc.store.get("g").graph)
    ref = cold.submit(spec)
    cold.run()
    np.testing.assert_allclose(second.values, ref.values,
                               rtol=1e-12, atol=1e-12)


def test_reweight_warm_start_is_bit_identical():
    g = uniform_random(500, 4000, seed=2)
    svc = make_service(g)
    spec = pr_spec(max_iterations=2000, params={"tolerance": 0.0})
    first = svc.submit(spec)
    svc.run()
    cold_steps = len(first.result.stats)
    # PageRank weighs by out-degree, not edge weight: a pure reweight
    # leaves the float map unchanged, so the old fixpoint IS the new
    # one and the warm run just re-verifies it
    svc.mutate("g", MutationBatch(update_src=g.src[:40].copy(),
                                  update_dst=g.dst[:40].copy(),
                                  update_weights=g.weights[:40] * 0.5))
    second = svc.submit(spec)
    svc.run()
    assert second.warm_started
    assert len(second.result.stats) == 1
    assert len(second.result.stats) < cold_steps
    cold = make_service(svc.store.get("g").graph)
    ref = cold.submit(spec)
    cold.run()
    assert np.array_equal(second.values, ref.values)


def test_warm_start_refused_for_shrinking_mutations():
    g = ring(64)
    svc = make_service(g)
    spec = pr_spec(algorithm="cc", max_iterations=2000, params={})
    svc.submit(spec)
    svc.run()
    svc.mutate("g", MutationBatch(remove_src=[0], remove_dst=[1]))
    second = svc.submit(spec)
    svc.run()
    assert not second.warm_started             # planner fell back to cold
    assert svc.metrics()["warm_starts"] == 0
    cold = make_service(svc.store.get("g").graph)
    ref = cold.submit(spec)
    cold.run()
    assert np.array_equal(second.values, ref.values)


def test_unload_reload_clears_stale_warm_seeds():
    # a seed harvested from one incarnation of a key must never chain-
    # match a later incarnation: unload + load restarts versioning at 1,
    # so a stale (key, algo, params) seed with seed_version=1 would
    # otherwise warm-start a monotone algorithm from an unrelated
    # graph's fixpoint — an invalid bound it can never recover from
    svc = make_service(ring(64))
    spec = pr_spec(algorithm="cc", max_iterations=2000, params={})
    svc.submit(spec)
    svc.run()
    svc.mutate("g", add_edge_batch(0, 8))      # harvests a v1 seed
    assert svc._warm
    svc.unload_graph("g")
    assert not svc._warm
    assert "g" not in svc.store
    assert len(svc.cache) == 0
    # the new incarnation, mutated so the version chain (1 -> 2) lines
    # up exactly as the stale seed's chain would have
    svc.load_graph("g", uniform_random(64, 256, seed=9))
    svc.mutate("g", add_edge_batch(0, 8))
    job = svc.submit(spec)
    svc.run()
    assert not job.warm_started                # cold start, not chained
    cold = make_service(svc.store.get("g").graph)
    ref = cold.submit(spec)
    cold.run()
    assert np.array_equal(job.values, ref.values)


def test_warm_seed_harvest_is_bounded():
    svc = make_service()                       # cache_entries=8
    assert svc._warm_cap == 8
    for i in range(12):
        svc._warm_put(("g", f"alg{i}", "fp"), 1, object())
    assert len(svc._warm) == 8                 # oldest harvests evicted
    assert ("g", "alg0", "fp") not in svc._warm
    assert ("g", "alg11", "fp") in svc._warm


# -- journaled mutations across crash + recover -------------------------------


def test_journaled_mutation_replays_exactly_once(tmp_path):
    jpath = str(tmp_path / "svc.jsonl")
    svc = GraphService(SPEC, journal=jpath)
    g = ring(16)
    svc.load_graph("g", g)
    batch = add_edge_batch(0, 8)
    summary = svc.mutate("g", batch, idempotency_key="wire-key")
    assert summary["version"] == 2

    rec = GraphService.recover(jpath, graphs={"g": g})
    assert rec.store.get("g").version == 2     # mutation replayed
    assert rec.store.get("g").graph.num_edges == 17
    before = len(read_journal(jpath))
    # a second application of the same journaled batch is a no-op
    redo = rec.mutate("g", batch, idempotency_key="wire-key")
    assert redo["deduped"] and redo["version"] == 2
    assert rec.store.get("g").version == 2
    assert len(read_journal(jpath)) == before


def test_rejected_mutation_is_not_journaled(tmp_path):
    # a batch that fails apply-time validation must refuse cleanly: no
    # journal record, no version bump — and recovery of the journal
    # afterwards must not be poisoned by the bad request
    from repro.errors import GraphError
    jpath = str(tmp_path / "svc.jsonl")
    svc = GraphService(SPEC, journal=jpath)
    g = ring(16)
    svc.load_graph("g", g)
    with pytest.raises(GraphError, match="missing edge"):
        svc.mutate("g", MutationBatch(remove_src=[3], remove_dst=[9]))
    assert svc.store.get("g").version == 1
    assert not [r for r in read_journal(jpath)
                if r["rec"] == "mutation"]
    del svc
    rec = GraphService.recover(jpath, graphs={"g": g})
    assert rec.store.get("g").version == 1
    assert rec.metrics()["skipped_mutations"] == 0
    job = rec.submit(pr_spec())
    rec.run()
    assert job.state == "done"


def test_recover_skips_unappliable_journaled_mutation(tmp_path):
    # defense in depth: a journal written before the validate-then-
    # journal ordering may carry a batch the graph can no longer
    # apply; replay skips it instead of wedging recovery forever
    jpath = str(tmp_path / "svc.jsonl")
    svc = GraphService(SPEC, journal=jpath)
    g = ring(16)
    svc.load_graph("g", g)
    svc.mutate("g", add_edge_batch(0, 8))      # a good batch, v2
    bad = MutationBatch(remove_src=[3], remove_dst=[9])
    name = svc.journal.save_mutation(99, bad)
    svc.journal.append("mutation", svc.now_ms, key="g",
                       batch_id="poison", from_version=2,
                       to_version=3, file=name)
    del svc
    rec = GraphService.recover(jpath, graphs={"g": g})
    assert rec.metrics()["skipped_mutations"] == 1
    assert rec.metrics()["skipped_mutations"] == 1
    assert rec.store.get("g").version == 2     # good batch replayed
    assert rec.store.get("g").graph.num_edges == 17
    job = rec.submit(pr_spec())
    rec.run()
    assert job.state == "done"


def test_recovered_jobs_repin_their_journaled_version(tmp_path):
    jpath = str(tmp_path / "svc.jsonl")
    svc = GraphService(SPEC, journal=jpath)
    g = ring(16)
    svc.load_graph("g", g)
    pinned = svc.submit(pr_spec())             # pinned to v1, never run
    svc.mutate("g", add_edge_batch(0, 8))      # store moves to v2
    assert pinned.snapshot_version == 1

    rec = GraphService.recover(jpath, graphs={"g": g})
    jobs = {j.spec.tenant: j for j in rec.jobs()}
    assert rec.metrics()["recovered_jobs"] == 1
    replayed = jobs["t0"]
    assert replayed.snapshot_version == 1      # not silently re-pinned
    rec.run()
    assert replayed.state == "done"
    # and its answer matches a v1 run, not a v2 run
    base = make_service(g)
    ref = base.submit(pr_spec())
    base.run()
    assert np.array_equal(replayed.values, ref.values)
