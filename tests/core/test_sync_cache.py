"""Tests for the LRU-weighted vertex residency cache."""

import numpy as np
import pytest

from repro.core import sync_cache
from repro.core.sync_cache import LRUVertexCache
from repro.errors import MiddlewareError

from .test_property_cache import table


def bump(cache, vertex):
    """A use of ``vertex``: its weight rises to the current generation."""
    cache.touch(np.array([vertex]))


def test_lookup_hit_and_miss_counting():
    """Residency lookups: contains_many counts nothing, touch counts one
    hit per resident id; a miss is counted upstream, by the agent that
    then downloads the vertex."""
    c = LRUVertexCache(4)
    c.insert(1)
    assert c.contains_many(np.array([1, 2])).tolist() == [True, False]
    assert c.hits == 0
    c.touch(np.array([1, 2]))
    assert c.hits == 1
    assert 2 not in c


def test_capacity_evicts_least_recently_used():
    c = LRUVertexCache(2)
    c.insert(1)
    c.tick()
    c.insert(2)
    c.tick()
    bump(c, 1)           # 1's weight rises above 2's
    c.insert(3)          # must evict 2 (stalest)
    assert 1 in c and 3 in c and 2 not in c
    assert c.evictions == 1


def test_weights_age_with_iterations():
    """An entry untouched for many iterations is evicted before a fresh
    one, even if it was used more often long ago."""
    c = LRUVertexCache(2)
    c.insert(1)
    bump(c, 1)
    bump(c, 1)           # heavily used ... now
    for _ in range(5):
        c.tick()
    c.insert(2)          # fresh entry
    c.insert(3)          # evict 1: its recency decayed
    assert 1 not in c and 2 in c and 3 in c


def test_dirty_entries_never_evicted():
    c = LRUVertexCache(2)
    c.update(1, dirty=True)
    c.tick()
    c.insert(2)
    c.insert(3)          # can only evict 2
    assert 1 in c and 3 in c and 2 not in c


def test_cache_full_of_dirty_raises():
    c = LRUVertexCache(1)
    c.update(1, dirty=True)
    with pytest.raises(MiddlewareError):
        c.insert(2)


def test_take_dirty_flushes():
    c = LRUVertexCache(4)
    c.update(1)
    c.update(2)
    assert c.dirty_count == 2
    assert c.take_dirty().tolist() == [1, 2]
    assert c.dirty_count == 0
    assert 1 in c  # stays cached, now clean


def test_take_dirty_subset():
    c = LRUVertexCache(4)
    c.update(1)
    c.update(2)
    assert c.take_dirty(np.array([2, 9])).tolist() == [2]
    assert c.dirty_ids() == [1]


def test_partition_ids_and_touch():
    c = LRUVertexCache(4)
    c.insert(1)
    c.insert(2)
    ids = np.array([1, 2, 3])
    resident = c.contains_many(ids)            # the agent's per-block split
    hit, miss = ids[resident], ids[~resident]
    assert hit.tolist() == [1, 2]
    assert miss.tolist() == [3]
    c.touch(hit)
    assert c.hits == 2


def test_invalidate_removes_entry():
    c = LRUVertexCache(4)
    c.update(1, dirty=True)
    c.invalidate(1)
    assert 1 not in c
    assert c.dirty_count == 0
    c.invalidate(99)  # no-op


def test_insert_returns_evicted_id():
    c = LRUVertexCache(1)
    assert c.insert(1) is None
    assert c.insert(2) == 1


def test_capacity_validation():
    with pytest.raises(MiddlewareError):
        LRUVertexCache(0)


# -- tables sized by residency ----------------------------------------------------


def test_nominal_capacity_costs_nothing_until_used():
    c = LRUVertexCache(1_000_000)
    ids = np.arange(0, 3000, 3)                    # 1 000 vertices
    c.insert_many(ids)
    assert len(c) == 1000
    # all the memory there is: three flat slot tables and the id index
    arrays = {k: v for k, v in vars(c).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {"_ids", "_weights", "_dirty", "_index"}
    for name in ("_ids", "_weights", "_dirty"):
        assert arrays[name].shape == (arrays[name].size,)
        assert arrays[name].size <= 4 * 1000
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

    both(lambda c: c.insert(3))
    both(lambda c: c.insert_many(np.arange(10, 15)))
    assert 4 < grown._ids.size < 32                # first doubling(s)
    both(lambda c: c.tick())
    both(lambda c: c.insert_many(np.arange(20, 60),
                                 dirty=True))      # crosses two more
    assert grown._ids.size > 32
    both(lambda c: c.invalidate_many(np.arange(10, 40, 2)))
    recycled = len(grown._free)
    assert recycled == 13
    both(lambda c: c.insert_many(np.arange(100, 110)))
    assert len(grown._free) == recycled - 10       # vacated slots reused
    both(lambda c: c.tick())
    both(lambda c: c.insert_many(np.arange(200, 230)))  # bulk eviction
    both(lambda c: c.insert_many(np.arange(300, 400),
                                 dirty=True))      # thrash
    assert eager.evictions > 0 and eager.writebacks > 0
    assert grown._ids.size == capacity
    both(lambda c: c.take_dirty())
