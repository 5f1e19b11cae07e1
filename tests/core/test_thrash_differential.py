"""Differential test: the array thrash planner against the heap fold it
replaced (``reference_cache.py``).

``LRUVertexCache._plan_thrash`` folds an ascending batch in closed form
(a pointer over the stale pools, then a merge of the written pool's
heap with the batch's pushes).  On random cache states it must return
what the fold returns: the evicted ids in fold order, the kept mask and
the write-back count.  ``insert_many`` driven by either planner must
then return the same evictions and leave the same table behind.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sync_cache import LRUVertexCache

from .reference_cache import reference_plan_thrash
from .test_property_cache import counters, table


class FoldCache(LRUVertexCache):
    """The cache as it was: insert_many planned by the heap fold."""

    _plan_thrash = reference_plan_thrash


def build(cls, capacity, generation, residents):
    """A cache holding exactly ``residents`` (``id -> (weight, dirty)``,
    weights <= ``generation``), built through the public API."""
    cache = cls(capacity)
    for stamp in range(generation + 1):
        for vertex, (weight, dirty) in sorted(residents.items()):
            if weight == stamp:
                cache.update(vertex, dirty=dirty)
        if stamp < generation:
            cache.tick()
    return cache


def members(mask):
    """The ids whose bits are set in ``mask``, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@st.composite
def cases(draw):
    """Sets are drawn as bit masks and per-resident state as one byte
    each: a handful of draws per case instead of one per element."""
    capacity = draw(st.integers(1, 10))
    universe = draw(st.integers(capacity + 1, 3 * capacity + 3))
    generation = draw(st.integers(0, 3))
    held = members(draw(st.integers(0, 2 ** universe - 1)))[:capacity]
    state = draw(st.binary(min_size=len(held), max_size=len(held)))
    residents = {v: (b % (generation + 1), b >= 128)
                 for v, b in zip(held, state)}
    batch = members(draw(st.integers(1, 2 ** universe - 1)))
    return capacity, generation, residents, batch, draw(st.booleans())


def planned(cache, plan, ids, mark):
    ids = np.asarray(ids, dtype=np.int64)
    cache._grow(int(ids[-1]))
    evicted, kept, writebacks = plan(cache, ids, cache._resident[ids], mark)
    return evicted.tolist(), kept.tolist(), writebacks


def inserted(cache, ids, mark):
    out = cache.insert_many(np.asarray(ids), dirty=mark).tolist()
    return out, table(cache), counters(cache)


# the fresh-clean heap's minimum (5) is a member still to come: the
# first miss evicts it, so its own turn is a miss that evicts 3
HEAP_MIN_FIRST = (2, 0, {5: (0, False), 7: (0, False)}, [3, 5], False)
# a clean batch into a cache full of dirty entries: the first miss
# write-backs the stalest dirty entry, later ones cycle the clean heap
NO_CLEAN = (2, 1, {4: (0, True), 6: (1, True)}, [1, 2, 6], False)
# the same, but the only stale dirty entry is a member rewritten before
# the first miss: that miss writes back the dirty heap's minimum, the
# member itself, which has no turn left to re-enter
NO_CLEAN_LOST = (2, 1, {1: (0, True), 5: (1, True)}, [1, 2], False)
# resident members in all four pools, dirty batch
FOUR_POOLS = (6, 2, {0: (0, False), 2: (2, False), 4: (1, True),
                     6: (2, True), 9: (1, False)},
              [0, 1, 2, 3, 4, 5, 6, 7, 8], True)


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(cases(), min_size=6, max_size=6))
@example(batch=[HEAP_MIN_FIRST, NO_CLEAN, NO_CLEAN_LOST, FOUR_POOLS])
def test_planner_equals_the_heap_fold(batch):
    """600 random cases, six per example: hypothesis's per-example
    overhead, not the planners, was most of this test's time."""
    for case in batch:
        capacity, generation, residents, ids, mark = case
        cache = build(LRUVertexCache, capacity, generation, residents)
        assert (planned(cache, LRUVertexCache._plan_thrash, ids, mark)
                == planned(cache, reference_plan_thrash, ids, mark))
        fold = build(FoldCache, capacity, generation, residents)
        assert inserted(cache, ids, mark) == inserted(fold, ids, mark)


@pytest.mark.parametrize("case, evicted, kept, writebacks", [
    (HEAP_MIN_FIRST, [5, 3], [False, True], 0),
    (NO_CLEAN, [4, 1], [False, True, True], 1),
    (NO_CLEAN_LOST, [1], [False, True], 1),
])
def test_the_edge_shapes_fold_as_pinned(case, evicted, kept, writebacks):
    """The shapes the closed form treats apart, pinned by hand."""
    capacity, generation, residents, ids, mark = case
    cache = build(LRUVertexCache, capacity, generation, residents)
    assert planned(cache, LRUVertexCache._plan_thrash, ids, mark) == (
        evicted, kept, writebacks)
