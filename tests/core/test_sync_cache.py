"""Tests for the LRU-weighted vertex cache and the lazy-upload queues."""

import numpy as np
import pytest

from repro.core import sync_cache
from repro.core.sync_cache import GlobalQueues, LRUVertexCache
from repro.errors import MiddlewareError

from .test_property_cache import table


def row(x):
    return np.array([float(x)])


def test_lookup_hit_and_miss_counting():
    c = LRUVertexCache(4)
    c.insert(1, row(10))
    assert c.lookup(1) is not None
    assert c.lookup(2) is None
    assert c.hits == 1 and c.misses == 1
    assert c.hit_rate() == pytest.approx(0.5)


def test_capacity_evicts_least_recently_used():
    c = LRUVertexCache(2)
    c.insert(1, row(1))
    c.tick()
    c.insert(2, row(2))
    c.tick()
    c.lookup(1)          # bump 1's weight above 2's
    c.insert(3, row(3))  # must evict 2 (stalest)
    assert 1 in c and 3 in c and 2 not in c
    assert c.evictions == 1


def test_weights_age_with_iterations():
    """An entry untouched for many iterations is evicted before a fresh
    one, even if it was used more often long ago."""
    c = LRUVertexCache(2)
    c.insert(1, row(1))
    c.lookup(1)
    c.lookup(1)          # heavily used ... now
    for _ in range(5):
        c.tick()
    c.insert(2, row(2))  # fresh entry
    c.insert(3, row(3))  # evict 1: its recency decayed
    assert 1 not in c and 2 in c and 3 in c


def test_dirty_entries_never_evicted():
    c = LRUVertexCache(2)
    c.update(1, row(1), dirty=True)
    c.tick()
    c.insert(2, row(2))
    c.insert(3, row(3))  # can only evict 2
    assert 1 in c and 3 in c and 2 not in c


def test_cache_full_of_dirty_raises():
    c = LRUVertexCache(1)
    c.update(1, row(1), dirty=True)
    with pytest.raises(MiddlewareError):
        c.insert(2, row(2))


def test_take_dirty_flushes():
    c = LRUVertexCache(4)
    c.update(1, row(1))
    c.update(2, row(2))
    assert c.dirty_count == 2
    out = c.take_dirty()
    assert set(out) == {1, 2}
    assert c.dirty_count == 0
    assert 1 in c  # stays cached, now clean


def test_take_dirty_subset():
    c = LRUVertexCache(4)
    c.update(1, row(1))
    c.update(2, row(2))
    out = c.take_dirty(np.array([2, 9]))
    assert set(out) == {2}
    assert c.dirty_ids() == [1]


def test_partition_ids_and_touch():
    c = LRUVertexCache(4)
    c.insert(1, row(1))
    c.insert(2, row(2))
    hit, miss = c.partition_ids(np.array([1, 2, 3]))
    assert hit.tolist() == [1, 2]
    assert miss.tolist() == [3]
    c.touch(hit)
    assert c.hits == 2


def test_invalidate_removes_entry():
    c = LRUVertexCache(4)
    c.update(1, row(1), dirty=True)
    c.invalidate(1)
    assert 1 not in c
    assert c.dirty_count == 0
    c.invalidate(99)  # no-op


def test_insert_returns_evicted_id():
    c = LRUVertexCache(1)
    assert c.insert(1, row(1)) is None
    assert c.insert(2, row(2)) == 1


def test_capacity_validation():
    with pytest.raises(MiddlewareError):
        LRUVertexCache(0)


# -- tables sized by residency ----------------------------------------------------


def test_nominal_capacity_costs_nothing_until_used():
    c = LRUVertexCache(1_000_000)
    ids = np.arange(0, 3000, 3)                    # 1 000 vertices
    c.insert_many(ids, np.ones((ids.size, 2)))
    assert len(c) == 1000
    for array in (c._ids, c._weights, c._dirty, c._values):
        assert array.shape[0] <= 4 * 1000
    assert c._values.nbytes <= 4 * 1000 * 2 * 8
    assert len(c._free) == 0                       # no list of vacant slots


def test_growing_tables_match_an_eagerly_sized_twin(monkeypatch):
    capacity = 64
    eager = LRUVertexCache(capacity, writeback=True)
    monkeypatch.setattr(sync_cache, "_TABLE_SEED", 4)
    grown = LRUVertexCache(capacity, writeback=True)
    assert eager._ids.size == capacity and grown._ids.size == 4

    def both(op):
        a, b = op(eager), op(grown)
        assert np.array_equal(a, b)
        assert table(eager) == table(grown)
        assert (len(eager), eager.evictions, eager.writebacks) == (
            len(grown), grown.evictions, grown.writebacks)

    def rows(ids, salt):                           # width-4 value matrix
        return np.outer(np.asarray(ids) + salt, [1.0, 2.0, 3.0, 4.0])

    both(lambda c: c.insert(3, rows([3], 0.5)[0]))
    both(lambda c: c.insert_many(np.arange(10, 15), rows(range(10, 15), 0)))
    assert 4 < grown._ids.size < 32                # first doubling(s)
    both(lambda c: c.tick())
    both(lambda c: c.insert_many(np.arange(20, 60), rows(range(20, 60), 1),
                                 dirty=True))      # crosses two more
    assert grown._ids.size > 32
    both(lambda c: c.invalidate_many(np.arange(10, 40, 2)))
    recycled = len(grown._free)
    assert recycled == 13
    both(lambda c: c.insert_many(np.arange(100, 110),
                                 rows(range(100, 110), 2)))
    assert len(grown._free) == recycled - 10       # vacated slots reused
    both(lambda c: c.tick())
    both(lambda c: c.insert_many(np.arange(200, 230),
                                 rows(range(200, 230), 3)))  # bulk eviction
    both(lambda c: c.insert_many(np.arange(300, 400),
                                 rows(range(300, 400), 4),
                                 dirty=True))      # thrash
    assert eager.evictions > 0 and eager.writebacks > 0
    assert grown._ids.size == capacity == grown._values.shape[0]
    both(lambda c: sorted(c.take_dirty()))
    assert grown._values.shape[1] == 4


# -- global queues (Algorithm 3) -------------------------------------------------


def test_query_union_excludes_own_node():
    q = GlobalQueues()
    q.push_query(0, np.array([1, 2]))
    q.push_query(1, np.array([2, 3]))
    assert q.query_union().tolist() == [1, 2, 3]
    assert q.query_union(exclude_node=0).tolist() == [2, 3]
    assert q.query_union(exclude_node=1).tolist() == [1, 2]


def test_data_queue_fetch():
    q = GlobalQueues()
    q.push_data(0, {5: row(50)})
    q.push_data(1, {6: row(60), 7: row(70)})
    got = q.fetch(np.array([5, 7, 9]))
    assert set(got) == {5, 7}
    assert got[5][0] == 50.0


def test_clear_resets_queues():
    q = GlobalQueues()
    q.push_query(0, np.array([1]))
    q.push_data(0, {1: row(1)})
    q.clear()
    assert q.query_union().size == 0
    assert q.fetch(np.array([1])) == {}


def test_empty_union():
    assert GlobalQueues().query_union().size == 0
