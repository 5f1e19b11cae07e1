"""Model-based property test: LRUVertexCache vs a reference model.

Drives the cache with random operation sequences and checks it against a
straightforward dictionary model implementing the same policy (decaying
recency weights, dirty pinning, lowest-weight eviction).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sync_cache import LRUVertexCache
from repro.errors import MiddlewareError


class ModelCache:
    """Reference implementation: plain dicts, no cleverness."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.values = {}
        self.weights = {}
        self.dirty = set()
        self.gen = 0.0

    def tick(self):
        self.gen += 1.0

    def lookup(self, v):
        if v in self.values:
            self.weights[v] = self.gen
            return self.values[v]
        return None

    def _evict(self):
        candidates = [(w, v) for v, w in self.weights.items()
                      if v not in self.dirty]
        if not candidates:
            raise MiddlewareError("full of dirty")
        _, victim = min(candidates)
        del self.values[victim]
        del self.weights[victim]

    def insert(self, v, value):
        if v not in self.values and len(self.values) >= self.capacity:
            self._evict()
        self.values[v] = value
        self.weights[v] = self.gen

    def update(self, v, value, dirty=True):
        self.insert(v, value)
        if dirty:
            self.dirty.add(v)

    def invalidate(self, v):
        self.values.pop(v, None)
        self.weights.pop(v, None)
        self.dirty.discard(v)

    def take_dirty(self):
        out = {v: self.values[v] for v in self.dirty}
        self.dirty.clear()
        return out


class BulkModel(ModelCache):
    """Per-item reference for the vectorized bulk operations."""

    def insert_many(self, ids, rows, dirty):
        for v, row in zip(ids, rows):        # duplicate ids: last wins
            self.insert(int(v), row)
            if dirty:
                self.dirty.add(int(v))

    def lookup_many(self, ids):
        return [self.lookup(int(v)) for v in ids]

    def contains_many(self, ids):
        return [int(v) in self.values for v in ids]

    def touch(self, ids):
        for v in ids:
            self.lookup(int(v))

    def invalidate_many(self, ids):
        for v in ids:
            self.invalidate(int(v))

    def take_dirty_subset(self, ids):
        picked = {int(v) for v in ids} & self.dirty
        out = {v: self.values[v] for v in picked}
        self.dirty -= picked
        return out

    def clear_dirty(self):
        n = len(self.dirty)
        self.dirty.clear()
        return n


IDS = st.lists(st.integers(0, 15), min_size=0, max_size=6)

BULK_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("tick")),
        st.tuples(st.just("insert_many"), IDS, st.booleans()),
        st.tuples(st.just("lookup_many"), IDS),
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
    counter = 0
    for op in ops:
        kind = op[0]
        if kind == "tick":
            real.tick()
            model.tick()
        elif kind == "insert_many":
            counter += 1
            ids = np.asarray(op[1], dtype=np.int64)
            rows = np.array([[counter * 100.0 + i]
                             for i in range(ids.size)])
            real.insert_many(ids, rows, dirty=op[2])
            model.insert_many(ids, rows, dirty=op[2])
        elif kind == "lookup_many":
            ids = np.asarray(op[1], dtype=np.int64)
            mask, rows = real.lookup_many(ids)
            expected = model.lookup_many(ids)
            assert list(mask) == [e is not None for e in expected]
            got = iter(rows)
            for e in expected:
                if e is not None:
                    assert next(got)[0] == e[0]
        elif kind == "contains_many":
            ids = np.asarray(op[1], dtype=np.int64)
            assert (list(real.contains_many(ids))
                    == model.contains_many(ids))
        elif kind == "touch":
            real.touch(np.asarray(op[1], dtype=np.int64))
            model.touch(op[1])
        elif kind == "invalidate_many":
            real.invalidate_many(np.asarray(op[1], dtype=np.int64))
            model.invalidate_many(op[1])
        elif kind == "take_dirty":
            got = real.take_dirty(np.asarray(op[1], dtype=np.int64))
            expected = model.take_dirty_subset(op[1])
            assert set(got) == set(expected)
            for v in got:
                assert got[v][0] == expected[v][0]
        elif kind == "flush":
            got = real.take_dirty()
            expected = model.take_dirty()
            assert set(got) == set(expected)
        elif kind == "clear_dirty":
            assert real.clear_dirty() == model.clear_dirty()
        # invariants after every step
        assert len(real) == len(model.values)
        assert set(real.dirty_ids()) == model.dirty
        for v in model.values:
            assert v in real
            assert real.lookup(v)[0] == model.values[v][0]


def fill(cache, ids, dirty=False):
    for v in ids:
        cache.update(v, np.array([float(v)]), dirty=dirty)


def test_bulk_insert_evicts_stalest_clean_first():
    cache = LRUVertexCache(4)
    fill(cache, [0, 1, 2, 3])
    cache.tick()
    cache.touch(np.array([0, 1]))            # 2 and 3 are now stalest
    evicted = cache.insert_many(np.array([10, 11]), np.zeros((2, 1)))
    assert sorted(evicted.tolist()) == [2, 3]
    assert sorted(v for v in range(20) if v in cache) == [0, 1, 10, 11]


def test_bulk_insert_batch_members_never_evict_each_other():
    cache = LRUVertexCache(4)
    assert cache.insert_many(np.arange(4), np.zeros((4, 1))).size == 0
    # in-place refresh of resident entries evicts nothing either
    assert cache.insert_many(np.arange(4), np.ones((4, 1))).size == 0
    assert cache.lookup(0)[0] == 1.0


def test_bulk_insert_pins_dirty_entries():
    cache = LRUVertexCache(3)
    fill(cache, [0, 1], dirty=True)
    fill(cache, [2])
    evicted = cache.insert_many(np.array([5]), np.zeros((1, 1)))
    assert evicted.tolist() == [2]           # the only clean entry
    assert cache.dirty_ids() == [0, 1]


def test_bulk_insert_writeback_evicts_dirty_when_all_pinned():
    cache = LRUVertexCache(2, writeback=True)
    fill(cache, [0, 1], dirty=True)
    evicted = cache.insert_many(np.array([5, 6]), np.zeros((2, 1)))
    assert sorted(evicted.tolist()) == [0, 1]
    assert cache.writebacks == 2
    strict = LRUVertexCache(2)
    fill(strict, [0, 1], dirty=True)
    with pytest.raises(MiddlewareError):
        strict.insert_many(np.array([5, 6]), np.zeros((2, 1)))


def test_bulk_insert_larger_than_capacity_matches_sequential():
    bulk = LRUVertexCache(2)
    seq = LRUVertexCache(2)
    ids = np.array([4, 5, 6, 7])
    rows = np.arange(4, dtype=float).reshape(4, 1)
    evicted = bulk.insert_many(ids, rows)
    seq_evicted = [e for v, row in zip(ids, rows)
                   if (e := seq.insert(int(v), row)) is not None]
    assert evicted.tolist() == seq_evicted
    for v in ids:
        assert (v in bulk) == (v in seq)


def test_bulk_insert_duplicate_ids_keep_last():
    cache = LRUVertexCache(4)
    cache.insert_many(np.array([3, 3]), np.array([[1.0], [2.0]]))
    assert len(cache) == 1
    assert cache.lookup(3)[0] == 2.0


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("tick")),
        st.tuples(st.just("lookup"), st.integers(0, 15)),
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
    counter = 0
    for op in ops:
        counter += 1
        value = np.array([float(counter)])
        kind = op[0]
        try:
            if kind == "tick":
                real.tick()
                model.tick()
            elif kind == "lookup":
                got = real.lookup(op[1])
                expected = model.lookup(op[1])
                assert (got is None) == (expected is None)
                if got is not None:
                    assert got[0] == expected[0]
            elif kind == "insert":
                real.insert(op[1], value)
                model.insert(op[1], value)
            elif kind == "update":
                real.update(op[1], value, dirty=op[2])
                model.update(op[1], value, dirty=op[2])
            elif kind == "invalidate":
                real.invalidate(op[1])
                model.invalidate(op[1])
            elif kind == "flush":
                got = real.take_dirty()
                expected = model.take_dirty()
                assert set(got) == set(expected)
        except MiddlewareError:
            # both must agree the cache is wedged full of dirty entries
            with pytest.raises(MiddlewareError):
                model._evict()
            return
        # invariants after every step
        assert len(real) == len(model.values)
        assert set(real.dirty_ids()) == model.dirty
        assert len(real) <= capacity
        for v in model.values:
            assert v in real


# -- thrash regime: capacity below the id universe ------------------------------

UNIVERSE = 24
THRASH_IDS = st.lists(st.integers(0, UNIVERSE - 1), min_size=0, max_size=8)

THRASH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("tick")),
        st.tuples(st.just("touch"), THRASH_IDS),
        st.tuples(st.just("clear_dirty")),
        st.tuples(st.just("invalidate_many"), THRASH_IDS),
        st.tuples(st.just("update"), st.integers(0, UNIVERSE - 1),
                  st.booleans()),
        # a permutation of the universe; the op keeps a prefix longer
        # than the capacity, so the batch always outsizes the cache
        st.tuples(st.just("insert_many"),
                  st.permutations(range(UNIVERSE)),
                  st.integers(1, UNIVERSE), st.booleans(), st.booleans()),
    ),
    min_size=1, max_size=30,
)


def table(cache):
    """Everything observable about the resident set, keyed by id."""
    slots = np.flatnonzero(cache._ids >= 0)
    return {int(cache._ids[s]): (float(cache._weights[s]),
                                 bool(cache._dirty[s]),
                                 cache._values[s].tolist())
            for s in slots}


def counters(cache):
    return (len(cache), cache.hits, cache.misses, cache.evictions,
            cache.writebacks, cache.dirty_count)


@settings(max_examples=300, deadline=None)
@given(ops=THRASH_OPS, capacity=st.integers(1, 8),
       writeback=st.booleans())
def test_thrashing_insert_many_equals_the_per_vertex_fold(
        ops, capacity, writeback):
    """With capacity below the id universe, a batch larger than the
    cache takes the exact sequential order: the bulk cache must equal a
    twin driven one vertex at a time through insert()/update() on every
    observable, including the full-of-dirty error and the state it
    leaves behind."""
    bulk = LRUVertexCache(capacity, writeback=writeback)
    twin = LRUVertexCache(capacity, writeback=writeback)
    counter = 0
    for op in ops:
        kind = op[0]
        counter += 1
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
            value = np.array([float(counter)])
            outcomes = []
            for cache in (bulk, twin):
                try:
                    outcomes.append(cache.update(op[1], value, dirty=op[2]))
                except MiddlewareError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        else:
            _, perm, extra, dirty, ascending = op
            ids = np.asarray(perm[: min(capacity + extra, UNIVERSE)],
                             dtype=np.int64)
            if ascending:  # the order the agent's np.unique batches have
                ids = np.sort(ids)
            rows = counter * 100.0 + np.arange(ids.size,
                                               dtype=float).reshape(-1, 1)
            expected, error = [], None
            try:
                for v, row in zip(ids, rows):
                    out = (twin.update(int(v), row) if dirty
                           else twin.insert(int(v), row))
                    if out is not None:
                        expected.append(out)
            except MiddlewareError as exc:
                error = str(exc)
            if error is None:
                assert bulk.insert_many(ids, rows,
                                        dirty=dirty).tolist() == expected
            else:
                with pytest.raises(MiddlewareError) as caught:
                    bulk.insert_many(ids, rows, dirty=dirty)
                assert str(caught.value) == error
        assert table(bulk) == table(twin)
        assert counters(bulk) == counters(twin)
        assert len(bulk) <= capacity
