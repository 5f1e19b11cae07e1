"""Result-cache key semantics: hashing, invalidation, eviction by
expected saving, identity."""

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.api import (ClusterSpec, GraphService, JobSpec, MiddlewareConfig,
                       deploy)
from repro.engines import PowerGraphEngine
from repro.errors import ServeError
from repro.graph import load_dataset
from repro.serve import CachedResult, ResultCache, params_fingerprint
from repro.serve.cache import COUNT_WINDOW_PER_ENTRY


def run_result(max_iter=4):
    plug = deploy(ClusterSpec(nodes=2, gpus_per_node=1))
    engine = PowerGraphEngine.build(load_dataset("wrn"), plug.cluster,
                                    middleware=plug)
    return engine.run(PageRank(), max_iterations=max_iter)


# -- params hashing ---------------------------------------------------------------------

def test_fingerprint_is_order_independent():
    assert params_fingerprint({"a": 1, "b": 2}) == \
        params_fingerprint({"b": 2, "a": 1})


def test_fingerprint_treats_tuples_and_lists_alike():
    assert params_fingerprint({"sources": (0, 1, 2)}) == \
        params_fingerprint({"sources": [0, 1, 2]})


def test_fingerprint_distinguishes_values_and_keys():
    base = params_fingerprint({"sources": (0, 1)})
    assert params_fingerprint({"sources": (0, 2)}) != base
    assert params_fingerprint({"roots": (0, 1)}) != base
    assert params_fingerprint({}) != base


def test_fingerprint_canonicalizes_numpy_scalars():
    assert params_fingerprint({"k": np.int64(3)}) == \
        params_fingerprint({"k": 3})


def test_key_includes_graph_version():
    params = {"x": 1}
    k1 = ResultCache.key("g", 1, "pagerank", params)
    k2 = ResultCache.key("g", 2, "pagerank", params)
    assert k1 != k2
    assert ResultCache.key("g", 1, "pagerank", params) == k1


# -- get/put identity -------------------------------------------------------------------

def test_cache_hit_is_byte_identical_to_recompute():
    result = run_result()
    cache = ResultCache(4)
    key = cache.key("g", 1, "pagerank", {})
    cache.put(key, result)
    hit = cache.get(key)
    assert np.array_equal(hit.values, result.values)
    assert hit.values.dtype == result.values.dtype
    assert hit.iterations == result.iterations
    assert hit.converged == result.converged
    assert hit.compute_ms == result.total_ms


def test_cache_copies_defensively_on_put_and_get():
    result = run_result()
    cache = ResultCache(4)
    key = cache.key("g", 1, "pagerank", {})
    cache.put(key, result)
    original = result.values.copy()
    result.values[:] = -1.0          # caller mutates after put
    first = cache.get(key)
    assert np.array_equal(first.values, original)
    first.values[:] = -2.0           # caller mutates a hit
    assert np.array_equal(cache.get(key).values, original)


# -- LRU eviction -----------------------------------------------------------------------

def test_lru_evicts_least_recently_used_first():
    result = run_result()
    cache = ResultCache(2)
    ka = cache.key("g", 1, "a", {})
    kb = cache.key("g", 1, "b", {})
    kc = cache.key("g", 1, "c", {})
    cache.put(ka, result)
    cache.put(kb, result)
    assert cache.get(ka) is not None   # refresh a; b is now LRU
    cache.put(kc, result)              # evicts b
    assert kb not in cache and ka in cache and kc in cache
    assert cache.evictions == 1


def test_lru_put_refreshes_recency():
    result = run_result()
    cache = ResultCache(2)
    ka, kb, kc = (ResultCache.key("g", 1, n, {}) for n in "abc")
    cache.put(ka, result)
    cache.put(kb, result)
    cache.put(ka, result)              # re-put refreshes a
    cache.put(kc, result)              # evicts b, not a
    assert ka in cache and kb not in cache


# -- eviction by expected saving --------------------------------------------------------

def entry(compute_ms):
    return CachedResult(np.zeros(2), 1, True, compute_ms, "powergraph",
                        "pagerank")


def test_eviction_weighs_lookups_by_compute_cost():
    cache = ResultCache(2)
    ka, kb, kc = (ResultCache.key("g", 1, n, {}) for n in "abc")
    cache.put_entry(ka, entry(10.0))
    cache.put_entry(kb, entry(1.0))
    cache.get(ka)
    for _ in range(3):
        cache.get(kb)                  # more lookups, but 3 x 1 < 1 x 10
    cache.put_entry(kc, entry(1.0))
    assert ka in cache and kb not in cache

    cache = ResultCache(2)
    cache.put_entry(ka, entry(10.0))
    cache.put_entry(kb, entry(5.0))
    cache.get(ka)
    for _ in range(3):
        cache.get(kb)                  # now 3 x 5 > 1 x 10
    cache.put_entry(kc, entry(1.0))
    assert kb in cache and ka not in cache


def test_misses_before_the_put_count():
    """Three misses then a put outrank one hit, though the missed key
    is the least recently used entry."""
    cache = ResultCache(2)
    ka, kb, kc = (ResultCache.key("g", 1, n, {}) for n in "abc")
    for _ in range(3):
        assert cache.get(kb) is None
    cache.put_entry(kb, entry(1.0))
    cache.put_entry(ka, entry(1.0))
    assert cache.get(ka) is not None
    assert cache.keys() == [kb, ka]
    cache.put_entry(kc, entry(1.0))
    assert cache.keys() == [kb, kc]
    assert cache.evictions == 1


def test_ties_evict_the_least_recently_used():
    cache = ResultCache(2)
    ka, kb, kc = (ResultCache.key("g", 1, n, {}) for n in "abc")
    cache.put_entry(ka, entry(2.0))
    cache.put_entry(kb, entry(1.0))
    cache.get(ka)
    cache.get(kb)
    cache.get(kb)                      # 1 x 2 == 2 x 1; a is older
    cache.put_entry(kc, entry(1.0))
    assert cache.keys() == [kb, kc]


def test_invalidation_prunes_the_counts_of_dead_versions():
    cache = ResultCache(4)
    old, new, other = (ResultCache.key("g", 1, "pagerank", {}),
                       ResultCache.key("g", 2, "pagerank", {}),
                       ResultCache.key("h", 1, "pagerank", {}))
    cache.put_entry(old, entry(1.0))
    for key in (old, new, other):
        cache.get(key)
    assert cache.invalidate_graph("g", keep_versions={2}) == 1
    assert set(cache._lookups) == {new, other}
    assert cache.dead_counts() == []
    cache.get(old)                     # a lookup of a dropped version
    assert cache.dead_counts() == [old]
    cache.invalidate_graph("g")        # a reload drops every count
    assert set(cache._lookups) == {other}
    assert cache.dead_counts() == []


def test_the_count_table_stays_bounded():
    cache = ResultCache(4)
    window = COUNT_WINDOW_PER_ENTRY * cache.capacity
    hot = ResultCache.key("g", 1, "hot", {})
    largest = 0
    for i in range(10_000):
        cache.get(ResultCache.key("g", 1, "pagerank", {"i": i}))
        cache.get(hot)
        largest = max(largest, len(cache._lookups))
    assert largest <= window
    # the hot key survives every halving; its count stays bounded too
    assert 0 < cache._lookups[hot] <= window


def test_capacity_must_be_positive():
    with pytest.raises(ServeError):
        ResultCache(0)


# -- graph-version invalidation through the service -------------------------------------

def test_reload_invalidates_cached_answers():
    svc = GraphService(ClusterSpec(nodes=2, gpus_per_node=1))
    svc.load_graph("g", dataset="wrn")
    spec = JobSpec(graph="g", algorithm="pagerank", max_iterations=4)
    svc.submit(spec)
    svc.run()
    warm = svc.submit(spec)
    svc.run()
    assert warm.from_cache

    svc.load_graph("g", dataset="wrn")   # version bump
    cold = svc.submit(spec)
    svc.run()
    assert not cold.from_cache           # recomputed against v2
    assert svc.cache.invalidations >= 1
    # and the recompute was still byte-identical (same dataset)
    assert np.array_equal(cold.values, warm.values)


def test_stats_track_hits_misses_and_rate():
    result = run_result()
    cache = ResultCache(4)
    key = cache.key("g", 1, "pagerank", {})
    assert cache.get(key) is None
    cache.put(key, result)
    cache.get(key)
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_rate"] == 0.5


# -- singleflight coalescing edge cases -------------------------------------------------

def _service(**kw):
    svc = GraphService(ClusterSpec(nodes=2, gpus_per_node=1), **kw)
    svc.load_graph("g", dataset="wrn")
    return svc


def _query(tenant):
    return JobSpec(graph="g", algorithm="pagerank", tenant=tenant,
                   max_iterations=6)


def test_cancelled_leader_with_multiple_waiters_hands_off():
    svc = _service()
    leader = svc.submit(_query("a"))
    w1 = svc.submit(_query("b"))
    w2 = svc.submit(_query("c"))
    for _ in range(2):
        svc.step()
    assert svc.coalesced == 2                   # both parked behind a
    assert svc.cancel(leader.job_id)
    svc.run()
    assert leader.state == "cancelled" and leader.values is None
    # the group recomputed: one waiter became the new leader, the
    # other coalesced onto it — everyone still gets the answer
    assert w1.state == w2.state == "done"
    assert np.array_equal(w1.values, w2.values)
    assert w2.from_cache or svc.coalesced >= 2


def test_waiter_cancelled_while_coalesced_leaves_group_intact():
    svc = _service()
    leader = svc.submit(_query("a"))
    doomed = svc.submit(_query("b"))
    kept = svc.submit(_query("c"))
    for _ in range(2):
        svc.step()
    assert svc.cancel(doomed.job_id)
    assert doomed.state == "cancelled"
    svc.run()
    assert leader.state == "done" and kept.state == "done"
    assert np.array_equal(kept.values, leader.values)
    assert doomed.values is None                # never served
    assert kept.consumed_ms < leader.consumed_ms  # still coalesced


def test_hung_leader_times_out_and_waiters_recompute():
    from repro.fault import HANG, FaultPlan

    # the leader's run carries a long mid-run daemon hang; the waiter
    # group abandons it after waiter_timeout_ms and recomputes
    hang = FaultPlan.single(HANG, superstep=2, node_id=0,
                            duration_ms=50_000.0)
    svc = _service(waiter_timeout_ms=500.0)
    leader = svc.submit(JobSpec(
        graph="g", algorithm="pagerank", tenant="slow",
        max_iterations=6,
        runtime=MiddlewareConfig.preset("resilient").with_(
            fault_plan=hang)))
    waiter = svc.submit(_query("b"))
    svc.run()
    assert svc.handoffs == 1
    assert waiter.state == "done" and leader.state == "done"
    assert np.array_equal(waiter.values, leader.values)
    # the waiter abandoned the hung leader and recomputed on its own;
    # it was not served from the stale leader's publish
    assert not waiter.from_cache


def test_put_entry_is_idempotent_and_defensive():
    result = run_result()
    cache = ResultCache(4)
    key = cache.key("g", 1, "pagerank", {})
    from repro.serve import CachedResult
    entry = CachedResult(result.values.copy(), 4, True, 10.0,
                         "powergraph", "pagerank")
    assert cache.put_entry(key, entry)
    assert not cache.put_entry(key, CachedResult(
        result.values * 2, 9, False, 1.0, "graphx", "pagerank"))
    hit = cache.get(key)                        # first write wins
    assert hit.iterations == 4 and hit.engine == "powergraph"
    np.testing.assert_array_equal(hit.values, result.values)
    entry.values[:] = -1.0                      # caller-side mutation
    np.testing.assert_array_equal(cache.get(key).values, result.values)
