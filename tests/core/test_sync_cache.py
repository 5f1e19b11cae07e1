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


# -- one table indexed by vertex id ------------------------------------------------


def test_negative_ids_are_refused():
    c = LRUVertexCache(4)
    with pytest.raises(MiddlewareError, match="got -1"):
        c.insert(-1)
    with pytest.raises(MiddlewareError, match=">= 0"):
        c.insert_many(np.array([3, -2]))
    assert len(c) == 0
    assert c.contains_many(np.array([-1, -2])).tolist() == [False, False]


def test_nominal_capacity_costs_nothing_until_used():
    c = LRUVertexCache(1_000_000)
    ids = np.arange(0, 3000, 3)                    # 1 000 vertices
    c.insert_many(ids)
    assert len(c) == 1000
    # all the memory there is: one flat table, sized by the largest id
    # seen (doubled from its seed), not by the capacity
    arrays = {k: v for k, v in vars(c).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {"_resident", "_weights", "_dirty"}
    assert {a.shape for a in arrays.values()} == {(4096,)}


def test_growing_tables_match_an_eagerly_sized_twin(monkeypatch):
    """A table grown from a tiny seed equals one seeded past every id,
    op for op."""
    capacity = 64
    eager = LRUVertexCache(capacity)
    monkeypatch.setattr(sync_cache, "_INDEX_SEED", 4)
    grown = LRUVertexCache(capacity)
    assert eager._resident.size > 400 and grown._resident.size == 4

    def both(op):
        a, b = op(eager), op(grown)
        assert np.array_equal(a, b)
        assert table(eager) == table(grown)
        assert (len(eager), eager.evictions, eager.writebacks,
                eager.hits) == (len(grown), grown.evictions,
                                grown.writebacks, grown.hits)

    both(lambda c: c.insert(3))
    both(lambda c: c.insert_many(np.arange(10, 15)))
    assert grown._resident.size == 16              # doubled past id 14
    both(lambda c: c.tick())
    both(lambda c: c.insert_many(np.arange(20, 60), dirty=True))
    both(lambda c: c.touch(np.arange(0, 80, 3)))   # ids past the table
    both(lambda c: c.contains_many(np.arange(50, 70)))
    both(lambda c: c.invalidate_many(np.arange(10, 40, 2)))
    both(lambda c: c.insert_many(np.arange(100, 110)))
    both(lambda c: c.tick())
    both(lambda c: c.insert_many(np.arange(200, 230)))  # bulk eviction
    both(lambda c: c.update(250, dirty=False))     # one-vertex eviction
    both(lambda c: c.insert_many(np.arange(300, 400),
                                 dirty=True))      # thrash
    assert eager.evictions > 0 and eager.writebacks > 0
    assert grown._resident.size == 512
    both(lambda c: c.take_dirty(np.arange(350, 600)))
    both(lambda c: c.take_dirty())
