"""The per-vertex heap fold ``LRUVertexCache._plan_thrash`` ran until it
was re-expressed over arrays for ascending batches: one pool pop and one
heap push per batch member.  Kept verbatim as the oracle the array
planner must match eviction for eviction.
"""

from heapq import heappop, heappush
from typing import Dict, List, Tuple

import numpy as np


def reference_plan_thrash(cache, ids: np.ndarray, present: np.ndarray,
                          mark: bool) -> Tuple[np.ndarray, np.ndarray, int]:
    """``cache._plan_thrash(ids, present, mark)`` as the fold computed
    it: ``(evicted ids in fold order, kept mask over ids, writebacks)``;
    the cache's table is read, never written."""
    occ = np.flatnonzero(cache._resident)
    order = occ[np.lexsort((occ, cache._weights[occ], cache._dirty[occ]))]
    pool_of = 2 * cache._dirty + (cache._weights == cache._generation)
    cuts = np.cumsum(np.bincount(pool_of[occ], minlength=4))[:3]
    stale_clean, fresh_clean, stale_dirty, fresh_dirty = (
        part.tolist() for part in np.split(order, cuts))
    stale_clean.reverse()  # pop() then takes the stalest
    stale_dirty.reverse()
    pools = (stale_clean, fresh_clean, stale_dirty, fresh_dirty)
    #: resident batch members whose turn is still to come -> pool
    pending = dict(zip(ids[present].tolist(),
                       pool_of[ids[present]].tolist()))
    moved: Dict[int, int] = {}  # id -> pool its in-place update chose
    evicted: List[int] = []
    lost: List[int] = []  # evicted with no turn left to re-enter
    writebacks = 0
    size, capacity = cache._size, cache.capacity
    fresh = pools[3 if mark else 1]  # where the batch's new ids land
    for vertex in ids.tolist():
        home = pending.pop(vertex, None)
        if home is not None:
            pool = 3 if (mark or home >= 2) else 1
            if pool != home:
                moved[vertex] = pool
                heappush(pools[pool], vertex)
        else:
            if size < capacity:
                size += 1
            else:
                while True:  # smallest live (dirty, weight, id)
                    if stale_clean:
                        pool, victim = 0, stale_clean.pop()
                    elif fresh_clean:
                        pool, victim = 1, heappop(fresh_clean)
                    elif stale_dirty:
                        pool, victim = 2, stale_dirty.pop()
                    else:
                        pool, victim = 3, heappop(fresh_dirty)
                    if moved.get(victim, pool) == pool:
                        break
                evicted.append(victim)
                writebacks += pool >= 2
                if pending.pop(victim, None) is None:
                    lost.append(victim)
            heappush(fresh, vertex)
    kept = ~np.isin(ids, np.asarray(lost, dtype=np.int64))
    return np.asarray(evicted, dtype=np.int64), kept, writebacks
