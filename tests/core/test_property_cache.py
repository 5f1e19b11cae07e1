"""Model-based property test: LRUVertexCache vs a reference model.

Drives the cache with random operation sequences and checks it against a
straightforward ``id -> (weight, dirty)`` dictionary model implementing
the same policy (decaying recency weights, dirty pinning, lowest-weight
eviction).
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sync_cache import LRUVertexCache


def table(cache):
    """Everything observable about the resident set:
    ``id -> (weight, dirty)``."""
    return {int(v): (float(cache._weights[v]), bool(cache._dirty[v]))
            for v in np.flatnonzero(cache._resident)}


class ModelCache:
    """Reference implementation: plain dicts, no cleverness."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.weights = {}
        self.dirty = set()
        self.gen = 0.0

    def table(self):
        return {v: (w, v in self.dirty) for v, w in self.weights.items()}

    def tick(self):
        self.gen += 1.0

    def touch(self, ids):
        for v in ids:
            if v in self.weights:
                self.weights[v] = self.gen

    def _evict(self):
        # clean entries first; a cache full of dirty ones writes back
        *_, victim = min((v in self.dirty, w, v)
                         for v, w in self.weights.items())
        del self.weights[victim]
        self.dirty.discard(victim)

    def insert(self, v):
        if v not in self.weights and len(self.weights) >= self.capacity:
            self._evict()
        self.weights[v] = self.gen

    def update(self, v, dirty=True):
        self.insert(v)
        if dirty:
            self.dirty.add(v)

    def invalidate(self, v):
        self.weights.pop(v, None)
        self.dirty.discard(v)

    def take_dirty(self, ids=None):
        picked = set(self.dirty if ids is None else ids) & self.dirty
        self.dirty -= picked
        return sorted(picked)


class BulkModel(ModelCache):
    """Per-item reference for the vectorized bulk operations."""

    def insert_many(self, ids, dirty):
        for v in ids:                        # duplicate ids count once
            self.update(v, dirty=dirty)

    def contains_many(self, ids):
        return [v in self.weights for v in ids]

    def invalidate_many(self, ids):
        for v in ids:
            self.invalidate(v)

    def clear_dirty(self):
        n = len(self.dirty)
        self.dirty.clear()
        return n


IDS = st.lists(st.integers(0, 15), min_size=0, max_size=6)

BULK_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("tick")),
        st.tuples(st.just("insert_many"), IDS, st.booleans()),
        st.tuples(st.just("contains_many"), IDS),
        st.tuples(st.just("touch"), IDS),
        st.tuples(st.just("invalidate_many"), IDS),
        st.tuples(st.just("take_dirty"), IDS),
        st.tuples(st.just("flush")),
        st.tuples(st.just("clear_dirty")),
    ),
    min_size=1, max_size=50,
)


@settings(max_examples=120, deadline=None)
@given(ops=BULK_OPS)
def test_bulk_ops_match_model(ops):
    """The vectorized whole-array operations agree with per-item
    semantics.  Capacity covers the id universe, so the (deliberately
    different) bulk eviction order never kicks in — it has its own
    deterministic tests below."""
    capacity = 16
    real = LRUVertexCache(capacity)
    model = BulkModel(capacity)
    hits = 0
    for op in ops:
        kind = op[0]
        if kind == "tick":
            real.tick()
            model.tick()
        elif kind == "insert_many":
            ids = np.asarray(op[1], dtype=np.int64)
            assert real.insert_many(ids, dirty=op[2]).size == 0
            model.insert_many(op[1], dirty=op[2])
        elif kind == "contains_many":
            ids = np.asarray(op[1], dtype=np.int64)
            assert (list(real.contains_many(ids))
                    == model.contains_many(ids))
        elif kind == "touch":
            hits += sum(v in model.weights for v in op[1])
            real.touch(np.asarray(op[1], dtype=np.int64))
            model.touch(op[1])
        elif kind == "invalidate_many":
            dropped = len(set(op[1]) & set(model.weights))
            assert real.invalidate_many(
                np.asarray(op[1], dtype=np.int64)) == dropped
            model.invalidate_many(op[1])
        elif kind == "take_dirty":
            got = real.take_dirty(np.asarray(op[1], dtype=np.int64))
            assert got.tolist() == model.take_dirty(op[1])
        elif kind == "flush":
            assert real.take_dirty().tolist() == model.take_dirty()
        elif kind == "clear_dirty":
            assert real.clear_dirty() == model.clear_dirty()
        # invariants after every step
        assert table(real) == model.table()
        assert len(real) == len(model.weights)
        assert set(real.dirty_ids()) == model.dirty
        assert real.hits == hits             # insert_many never counts one


def fill(cache, ids, dirty=False):
    for v in ids:
        cache.update(v, dirty=dirty)


def test_bulk_insert_evicts_stalest_clean_first():
    cache = LRUVertexCache(4)
    fill(cache, [0, 1, 2, 3])
    cache.tick()
    cache.touch(np.array([0, 1]))            # 2 and 3 are now stalest
    evicted = cache.insert_many(np.array([10, 11]))
    assert sorted(evicted.tolist()) == [2, 3]
    assert sorted(v for v in range(20) if v in cache) == [0, 1, 10, 11]


def test_bulk_insert_batch_members_never_evict_each_other():
    cache = LRUVertexCache(4)
    assert cache.insert_many(np.arange(4)).size == 0
    # in-place refresh of resident entries evicts nothing either: it is
    # a recency bump, with no hit counted
    cache.tick()
    assert cache.insert_many(np.arange(4)).size == 0
    assert table(cache) == {v: (1.0, False) for v in range(4)}
    assert cache.hits == 0


def test_bulk_insert_pins_dirty_entries():
    cache = LRUVertexCache(3)
    fill(cache, [0, 1], dirty=True)
    fill(cache, [2])
    evicted = cache.insert_many(np.array([5]))
    assert evicted.tolist() == [2]           # the only clean entry
    assert cache.dirty_ids() == [0, 1]


def test_bulk_insert_writeback_evicts_dirty_when_all_pinned():
    cache = LRUVertexCache(2)
    fill(cache, [0, 1], dirty=True)
    evicted = cache.insert_many(np.array([5, 6]))
    assert sorted(evicted.tolist()) == [0, 1]
    assert cache.writebacks == 2


def test_bulk_insert_larger_than_capacity_matches_sequential():
    bulk = LRUVertexCache(2)
    seq = LRUVertexCache(2)
    ids = np.array([4, 5, 6, 7])
    evicted = bulk.insert_many(ids)
    seq_evicted = [e for v in ids
                   if (e := seq.insert(int(v))) is not None]
    assert evicted.tolist() == seq_evicted
    assert table(bulk) == table(seq)


def test_bulk_insert_duplicate_ids_keep_last():
    cache = LRUVertexCache(4)
    cache.insert_many(np.array([3, 3, 1]), dirty=True)
    assert len(cache) == 2                   # a repeated id counts once
    assert table(cache) == {1: (0.0, True), 3: (0.0, True)}


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("tick")),
        st.tuples(st.just("touch"), st.integers(0, 15)),
        st.tuples(st.just("insert"), st.integers(0, 15)),
        st.tuples(st.just("update"), st.integers(0, 15),
                  st.booleans()),
        st.tuples(st.just("invalidate"), st.integers(0, 15)),
        st.tuples(st.just("flush")),
    ),
    min_size=1, max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(ops=OPS, capacity=st.integers(1, 8))
def test_cache_matches_model(ops, capacity):
    real = LRUVertexCache(capacity)
    model = ModelCache(capacity)
    for op in ops:
        kind = op[0]
        if kind == "tick":
            real.tick()
            model.tick()
        elif kind == "touch":
            real.touch(np.array([op[1]]))
            model.touch([op[1]])
        elif kind == "insert":
            real.insert(op[1])
            model.insert(op[1])
        elif kind == "update":
            real.update(op[1], dirty=op[2])
            model.update(op[1], dirty=op[2])
        elif kind == "invalidate":
            real.invalidate(op[1])
            model.invalidate(op[1])
        elif kind == "flush":
            assert real.take_dirty().tolist() == model.take_dirty()
        # invariants after every step
        assert table(real) == model.table()
        assert len(real) == len(model.weights) <= capacity
        assert set(real.dirty_ids()) == model.dirty
        for v in model.weights:
            assert v in real


# -- thrash regime: capacity below the id universe ------------------------------

UNIVERSE = 24


def thrash_ops(raw):
    """The op sequence a byte string spells: one draw per example, not
    dozens (hypothesis's per-element draws cost more than the caches
    they drive).  An op is a kind byte and its argument bytes: id lists
    (a length byte, then an id per byte), an ``update`` id and dirty
    bit, or an ``insert_many`` permutation of the universe (a 4-byte
    seed), its surplus over the capacity and its dirty / ascending
    bits; a string that runs out reads as zeros."""
    ops, pos = [], 0

    def take(k):
        nonlocal pos
        chunk = raw[pos:pos + k]
        pos += k
        return chunk + bytes(k - len(chunk))

    while pos < len(raw) and len(ops) < 30:
        kind = take(1)[0] % 6
        if kind == 0:
            ops.append(("tick",))
        elif kind == 1:
            ops.append(("clear_dirty",))
        elif kind in (2, 3):
            ids = [b % UNIVERSE for b in take(take(1)[0] % 9)]
            ops.append(("touch" if kind == 2 else "invalidate_many", ids))
        elif kind == 4:
            vertex, dirty = take(2)
            ops.append(("update", vertex % UNIVERSE, bool(dirty & 1)))
        else:
            perm = random.Random(int.from_bytes(take(4), "little")).sample(
                range(UNIVERSE), UNIVERSE)
            # the op keeps a prefix longer than the capacity, so the
            # batch always outsizes the cache
            extra, flags = take(2)
            ops.append(("insert_many", perm, extra % UNIVERSE + 1,
                        bool(flags & 1), bool(flags & 2)))
    return ops


THRASH_OPS = st.binary(min_size=16, max_size=160).map(thrash_ops)


def counters(cache):
    return (len(cache), cache.hits, cache.evictions, cache.writebacks,
            cache.dirty_count)


@settings(max_examples=300, deadline=None)
@given(ops=THRASH_OPS, capacity=st.integers(1, 8))
def test_thrashing_insert_many_equals_the_per_vertex_fold(ops, capacity):
    """With capacity below the id universe, a batch larger than the
    cache takes the exact sequential order: the bulk cache must equal a
    twin driven one vertex at a time, in ascending id order (a batch is
    a set), through insert()/update() on every observable, dirty
    write-backs included."""
    bulk = LRUVertexCache(capacity)
    twin = LRUVertexCache(capacity)
    for op in ops:
        kind = op[0]
        if kind == "tick":
            bulk.tick()
            twin.tick()
        elif kind == "touch":
            ids = np.asarray(op[1], dtype=np.int64)
            bulk.touch(ids)
            twin.touch(ids)
        elif kind == "clear_dirty":
            assert bulk.clear_dirty() == twin.clear_dirty()
        elif kind == "invalidate_many":
            ids = np.asarray(op[1], dtype=np.int64)
            assert bulk.invalidate_many(ids) == twin.invalidate_many(ids)
        elif kind == "update":
            assert (bulk.update(op[1], dirty=op[2])
                    == twin.update(op[1], dirty=op[2]))
        else:
            _, perm, extra, dirty, ascending = op
            ids = np.asarray(perm[: min(capacity + extra, UNIVERSE)],
                             dtype=np.int64)
            if ascending:  # the order the agent's np.unique batches have
                ids = np.sort(ids)
            expected = []
            for v in np.sort(ids).tolist():
                out = twin.update(v) if dirty else twin.insert(v)
                if out is not None:
                    expected.append(out)
            assert bulk.insert_many(ids, dirty=dirty).tolist() == expected
        assert table(bulk) == table(twin)
        assert counters(bulk) == counters(twin)
        assert len(bulk) <= capacity
