"""Result-cache key semantics: hashing, invalidation, eviction by
expected saving, identity."""

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.api import (ClusterSpec, GraphService, JobSpec, MiddlewareConfig,
                       deploy)
from repro.engines import PowerGraphEngine
from repro.errors import ServeError
from repro.graph import load_dataset, rmat
from repro.serve import CachedResult, ResultCache, params_fingerprint
from repro.serve.cache import CACHE_LOOKUP_MS, COUNT_WINDOW_PER_ENTRY
from repro.serve.journal import read_journal


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
    assert cache.stats()["evictions"] == 1


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
    assert cache.stats()["evictions"] == 1


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


# -- the spill tier ---------------------------------------------------------------------

def answer(compute_ms, file, value=0.0):
    return CachedResult(np.full(2, value), 1, True, compute_ms,
                        "powergraph", "pagerank", file)


def on_disk(*answers):
    """Sidecars as a dict (file -> answer) and the ``load`` reading it."""
    disk = {a.file: a for a in answers}
    return disk, lambda spilled: disk.get(spilled.file)


def test_an_evicted_answer_with_a_sidecar_spills_without_its_values():
    cache = ResultCache(1)
    ka, kb, kc, kd = (ResultCache.key("g", 1, n, {}) for n in "abcd")
    cache.put_entry(ka, answer(1.0, "a.npz", 7.0))
    cache.put_entry(kb, answer(1.0, "b.npz"))
    assert cache.keys() == [kb] and ka not in cache
    spilled = cache._spilled[ka]
    assert spilled.values is None and spilled.file == "a.npz"
    assert spilled.compute_ms == 1.0 and spilled.engine == "powergraph"
    # an answer without a sidecar (no journal) is forgotten
    cache.put_entry(kc, entry(1.0))
    cache.put_entry(kd, answer(1.0, "d.npz"))
    assert set(cache._spilled) == {ka, kb}
    stats = cache.stats()
    assert (stats["entries"], stats["spilled"], stats["evictions"]) == \
        (1, 2, 3)
    cache.check_invariants()


def test_a_spilled_lookup_reloads_as_a_hit_and_spills_another():
    cache = ResultCache(1)
    ka, kb = (ResultCache.key("g", 1, n, {}) for n in "ab")
    a, b = answer(1.0, "a.npz", 7.0), answer(1.0, "b.npz")
    _, load = on_disk(a, b)
    cache.put_entry(ka, a)
    cache.put_entry(kb, b)
    hit = cache.get(ka, load)
    assert hit.values.tolist() == [7.0, 7.0] and hit.file == "a.npz"
    assert cache.keys() == [ka] and set(cache._spilled) == {kb}
    hit.values[:] = -1.0               # a defensive copy, as any hit
    assert cache.get(ka).values.tolist() == [7.0, 7.0]
    stats = cache.stats()
    assert (stats["hits"], stats["misses"], stats["reloads"]) == (2, 0, 1)


def test_a_spilled_lookup_that_cannot_reload_is_a_miss_that_drops_the_key():
    cache = ResultCache(1)
    ka, kb, kc = (ResultCache.key("g", 1, n, {}) for n in "abc")
    disk, load = on_disk(answer(1.0, "a.npz"), answer(1.0, "b.npz"))
    for key, name in ((ka, "a.npz"), (kb, "b.npz"), (kc, "c.npz")):
        cache.put_entry(key, answer(1.0, name))
    del disk["a.npz"]                  # the sidecar is gone
    disk["b.npz"] = answer(2.0, "b.npz")   # another run's answer
    assert cache.get(ka, load) is None
    assert cache.get(kb, load) is None
    assert cache.get(kc) is not None and not cache._spilled
    stats = cache.stats()
    assert (stats["hits"], stats["misses"], stats["reloads"]) == (1, 2, 0)


def test_invalidation_drops_both_tiers_and_warm_seeds_come_from_residents():
    cache = ResultCache(1)
    old, new = (ResultCache.key("g", v, "pagerank", {}) for v in (1, 2))
    other = ResultCache.key("g", 1, "cc", {})
    cache.put_entry(old, answer(1.0, "old.npz"))
    cache.put_entry(other, answer(1.0, "other.npz"))
    assert [k for k, _ in cache.entries_for("g", 1)] == [other]
    cache.put_entry(new, answer(1.0, "new.npz"))
    assert cache.invalidate_graph("g", keep_versions={2}) == 2
    assert cache.keys() == [new] and not cache._spilled
    assert cache.stats()["invalidations"] == 2


def test_check_invariants_names_each_broken_tier_rule():
    ka, kb = (ResultCache.key("g", 1, n, {}) for n in "ab")
    for breaks, problem in (
            (lambda c: c._spilled.update({kb: c._spilled[ka]}),
             "both resident and spilled"),
            (lambda c: c._entries.update({ka: c._spilled.pop(ka)}),
             "over capacity"),
            (lambda c: c._spilled.update({ka: answer(1.0, "a.npz")}),
             "hold values")):
        cache = ResultCache(1)
        cache.put_entry(ka, answer(1.0, "a.npz"))
        cache.put_entry(kb, answer(1.0, "b.npz"))
        cache.check_invariants()
        breaks(cache)
        with pytest.raises(ServeError, match=problem):
            cache.check_invariants()


def test_a_journaled_service_reloads_an_evicted_answer(tmp_path):
    """The second PageRank is a hit on the first one's sidecar, charged
    a lookup, and journaled with that file; without a journal the
    same schedule recomputes."""
    specs = [JobSpec(graph="g", algorithm="pagerank", max_iterations=4),
             JobSpec(graph="g", algorithm="cc")]

    def serve(**kw):
        svc = GraphService(ClusterSpec(nodes=2, gpus_per_node=1),
                           cache_entries=1, **kw)
        svc.load_graph("g", rmat(48, 192, seed=5))
        jobs = []
        for spec in specs + specs[:1]:
            jobs.append(svc.submit(spec))
            svc.run()
        return svc, jobs

    svc, (first, _, again) = serve(journal=str(tmp_path / "svc.jsonl"))
    assert again.from_cache and again.result_file == first.result_file
    assert again.values.tobytes() == first.values.tobytes()
    assert again.consumed_ms == CACHE_LOOKUP_MS
    stats = svc.cache.stats()
    assert (stats["reloads"], stats["spilled"], stats["hits"]) == (1, 1, 1)
    finished = [r for r in read_journal(str(tmp_path / "svc.jsonl"))
                if r["rec"] == "finished"]
    assert finished[-1]["from_cache"]
    assert finished[-1]["file"] == first.result_file
    svc.check_invariants()

    plain, (first, _, again) = serve()
    assert not again.from_cache and plain.cache.stats()["spilled"] == 0
    assert again.values.tobytes() == first.values.tobytes()


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
    assert svc.cache.stats()["invalidations"] >= 1
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
    assert svc.metrics()["coalesced"] == 2      # both parked behind a
    assert svc.cancel(leader.job_id)
    svc.run()
    assert leader.state == "cancelled" and leader.values is None
    # the group recomputed: one waiter became the new leader, the
    # other coalesced onto it — everyone still gets the answer
    assert w1.state == w2.state == "done"
    assert np.array_equal(w1.values, w2.values)
    assert w2.from_cache or svc.metrics()["coalesced"] >= 2


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
    assert svc.metrics()["handoffs"] == 1
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
